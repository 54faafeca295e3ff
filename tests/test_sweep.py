import dataclasses
import inspect
import json
import os
import random
import tracemalloc
from functools import cache
from pathlib import Path

import pytest

import fsdsq
import fsdsq.pairs
import fsdsq.sweep
from fsdsq.census import CensusReport, runs_of_two, s_sequence
from fsdsq.cli import main
from fsdsq.errors import CostCeilingError, CounterexampleError
from fsdsq.double_squares import find_fs_double_squares
from fsdsq.pairs import ALL_PROPERTIES, Check, PairKind, check_word, find_double_square_pairs
from fsdsq.construct import build_run
from fsdsq.sweep import (LengthStats, SweepReport, _block_counts, _block_line, _left_canonical,
                         _fold, _length_counts, _plan_blocks, _process_block, exhaustive_verify)
from fsdsq.words import Word

from named_words import CASE_10, EQUAL_17, SEEDS, UNEQUAL_39, UNEQUAL_67, W1, W2
from oracles import (all_words, canonical_words, oracle_later_match, oracle_longest_run,
                     oracle_rightmost, oracle_s)
from structure import double_square, squares_of

# Checkpoints written before the block plan was sized to the alphabet, when
# every alphabet was keyed by suffixes of length 7: a binary sweep to 9 and
# a ternary sweep to 10, each stopped after a few blocks.
DATA = Path(__file__).parent / "data"


def _json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


class TestCanonicalEnumeration:
    @pytest.mark.parametrize("alphabet_size,length", [(2, 1), (2, 6), (3, 5), (1, 4)])
    def test_matches_oracle(self, alphabet_size, length):
        # the block plan: the shorter words, then every right-canonical
        # suffix of the key length, in the order of their reversals
        key_len, blocks = _plan_blocks(alphabet_size, length)
        assert key_len == length
        assert blocks[0] == ""
        assert [b[::-1] for b in blocks[1:]] == list(canonical_words(alphabet_size, length))

    # (b, number of blocks) for n = 1..12: b is n up to the alphabet's cap,
    # the longest suffix length with at most 64 suffixes, capped at 7
    CAP = {1: 7, 2: 7, 3: 5, 4: 5, 5: 5, 6: 5, 7: 5, 8: 5}
    BLOCKS = {
        1: [2] * 12,
        2: [2, 3, 5, 9, 17, 33] + [65] * 6,
        3: [2, 3, 6, 15] + [42] * 8,
        4: [2, 3, 6, 16] + [52] * 8,
        **{a: [2, 3, 6, 16] + [53] * 8 for a in range(5, 9)},
    }

    def test_counts(self):
        # the plan that a walk to 7 gave, so every checkpoint header and
        # block list stays as it was
        for a in range(1, 9):
            for n in range(1, 13):
                b, blocks = _plan_blocks(a, n)
                assert (b, len(blocks)) == (min(n, self.CAP[a]), self.BLOCKS[a][n - 1])
                assert [s[::-1] for s in blocks[1:]] == list(canonical_words(min(a, b), b))

    def test_one_walk_per_plan(self, monkeypatch):
        walks, visits = [], []
        walk = fsdsq.sweep._walk

        def counted(alphabet_size, max_len, suffix, visit):
            walks.append(max_len)

            def counted_visit(*state):
                visits.append(1)
                return visit(*state)

            walk(alphabet_size, max_len, suffix, counted_visit)

        monkeypatch.setattr(fsdsq.sweep, "_walk", counted)
        assert _plan_blocks(4, 12)[0] == 5
        assert walks == [5]  # counted, b needs no walk past it
        assert len(visits) == sum(1 for n in range(1, 6) for _ in canonical_words(4, n))

    def test_census_invariant_under_renaming(self):
        rng = random.Random(7)
        for text in canonical_words(3, 9):
            if rng.random() > 0.02:
                continue
            perm = list(range(3))
            rng.shuffle(perm)
            word = Word.from_text(text)
            renamed = Word(bytes(perm[c] for c in word))
            assert s_sequence(renamed).s == s_sequence(word).s

    def test_every_word_canonicalizes_into_enumeration(self):
        # first-occurrence renaming maps any word to exactly one enumerated
        # canonical word, with the same census
        for length in range(1, 7):
            enumerated = {Word.from_text(t).codes for t in canonical_words(3, length)}
            for text in all_words(3, length):
                word = Word.from_text(text)
                mapping: dict[int, int] = {}
                for c in word:
                    mapping.setdefault(c, len(mapping))
                canon = bytes(mapping[c] for c in word)
                assert canon in enumerated
                assert s_sequence(Word(canon)).s == s_sequence(word).s


class TestWordCount:
    """The exact count of right-canonical words against the walk."""

    def test_stirling_sums(self):
        # words up to renaming: S(n, 1) + ... + S(n, a) at each length n
        for a in (1, 2, 3, 5, 8, 40):
            row, counts = [1], []  # S(0, k)
            for n in range(1, 31):
                row = [0] + [k * (row[k] if k < len(row) else 0) + row[k - 1]
                             for k in range(1, n + 1)]
                counts.append(sum(row[1:a + 1]))
                assert list(_length_counts(a, n)) == counts

    @pytest.mark.parametrize("alphabet_size,max_len", [(1, 12), (2, 12), (3, 10), (4, 10)])
    def test_sweep_total_and_lengths(self, alphabet_size, max_len):
        report = exhaustive_verify(alphabet_size, max_len, allow_over_ceiling=True)
        counts = list(_length_counts(alphabet_size, max_len))
        assert report.total_words == sum(counts)
        assert sorted(report.per_length) == list(range(1, max_len + 1))
        for n, st in report.per_length.items():
            assert st.words == counts[n - 1]

    @pytest.mark.parametrize("alphabet_size,max_len,block_len", [
        (1, 9, 7), (2, 12, 7), (3, 9, 7), (4, 8, 7), (5, 6, 7), (3, 4, 7), (2, 9, 1), (3, 8, 3)])
    def test_block_words_match_walk(self, alphabet_size, max_len, block_len, monkeypatch):
        # a resumed sweep's pending words are the count less the words its
        # checkpoint's blocks record, exact because the blocks' stats sum
        # to the count under every plan; a loaded record must give each
        # length of its block the count that _block_counts gives
        monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", block_len)
        b, blocks = _plan_blocks(alphabet_size, max_len)
        recorded = 0
        for block_id in blocks:
            _, partial = _process_block((alphabet_size, max_len, b, block_id))
            counts = {n: st.words for n, st in partial["lengths"].items()}
            assert counts == _block_counts(alphabet_size, max_len, b, block_id)
            recorded += sum(counts.values())
        assert recorded == sum(_length_counts(alphabet_size, max_len))


class TestExhaustiveVerify:
    def test_small_binary_sweep_clean(self):
        report = exhaustive_verify(alphabet_size=2, max_len=10)
        assert report.findings == ()
        assert report.total_words == 1023
        assert max(st.max_run for st in report.per_length.values()) == 1
        assert sum(st.pairs_equal + st.pairs_unequal
                   for st in report.per_length.values()) == 0
        assert report.per_length[10].double_square_positions == 1
        assert report.min_length_per_run == {1: 10}

    def test_unary_sweep(self):
        report = exhaustive_verify(alphabet_size=1, max_len=8)
        assert report.findings == ()
        assert all(st.max_run == 0 for st in report.per_length.values())
        assert all(st.words == 1 for st in report.per_length.values())

    def test_cost_ceiling(self):
        with pytest.raises(CostCeilingError, match=r"^alphabet size 2 to length 19 is 524,287 "
                           r"canonical words, over the ceiling of 262,143; pass the override "
                           r"flag to run anyway$"):
            exhaustive_verify(alphabet_size=2, max_len=19)
        with pytest.raises(CostCeilingError, match="398,587 canonical words"):
            exhaustive_verify(alphabet_size=3, max_len=13)
        # 37 unary words are far under the ceiling, however long
        assert exhaustive_verify(alphabet_size=1, max_len=37).total_words == 37

    def test_ceiling_is_the_word_count(self, monkeypatch):
        """The refused sweeps are exactly those of more than
        ``MAX_SWEEP_WORDS`` canonical words, and they include none that
        ``alphabet_size * max_len <= 36`` allowed.  A sweep past the guard
        stops at its block plan, so no sweep runs."""

        class Planned(Exception):
            pass

        def plan(alphabet_size, max_len):
            raise Planned

        monkeypatch.setattr(fsdsq.sweep, "_plan_blocks", plan)
        for a in range(1, 41):
            for n in range(1, 41):
                over = sum(_length_counts(a, n)) > fsdsq.sweep.MAX_SWEEP_WORDS
                with pytest.raises(CostCeilingError if over else Planned):
                    exhaustive_verify(a, n)
                assert not (over and a * n <= 36), (a, n)
                with pytest.raises(Planned):
                    exhaustive_verify(a, n, allow_over_ceiling=True)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_parallelism_below_one_rejected(self, jobs, capsys):
        with pytest.raises(ValueError, match="parallelism must be at least 1"):
            exhaustive_verify(2, 6, parallelism=jobs)
        assert main(["verify", "--max-len", "6", "--jobs", str(jobs)]) == 1
        assert "parallelism must be at least 1" in capsys.readouterr().err

    def test_pool_sized_to_pending_blocks(self, monkeypatch, tmp_path, crash_after):
        # workers: at most --jobs, pending blocks and usable CPUs; about four
        # chunks per worker
        pools = []

        class FakePool:
            def __init__(self, processes):
                pools.append([processes])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, func, args, chunksize=1):
                pools[-1].append(chunksize)
                return map(func, args)

        monkeypatch.setattr(fsdsq.sweep, "Pool", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(fsdsq.sweep, "WORDS_PER_WORKER", 1)
        serial = _json(exhaustive_verify(2, 6))
        assert _json(exhaustive_verify(2, 6, parallelism=64)) == serial
        assert _json(exhaustive_verify(2, 6, parallelism=2)) == serial
        ck = str(tmp_path / "sweep.ck")
        with crash_after(30):
            exhaustive_verify(2, 6, checkpoint_path=ck)
        resumed = exhaustive_verify(2, 6, checkpoint_path=ck, parallelism=64)
        assert _json(resumed) == serial
        assert pools == [[4, 2], [2, 4], [3, 1]]
        # without an affinity mask, the CPU count; one CPU runs in-process
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _json(exhaustive_verify(2, 6, parallelism=64)) == serial
        assert len(pools) == 3

    def test_pool_sized_to_pending_words(self, monkeypatch, tmp_path, crash_after):
        # at most one worker per WORDS_PER_WORKER words still to sweep, and
        # one worker runs in-process
        pools = []

        class FakePool:
            def __init__(self, processes):
                pools.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, func, args, chunksize=1):
                return map(func, args)

        monkeypatch.setattr(fsdsq.sweep, "Pool", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        serial = _json(exhaustive_verify(2, 6))  # 63 words in 33 blocks
        for per_worker, workers in ((15, [4]), (30, [2]), (32, [])):
            pools.clear()
            monkeypatch.setattr(fsdsq.sweep, "WORDS_PER_WORKER", per_worker)
            assert _json(exhaustive_verify(2, 6, parallelism=64)) == serial
            assert pools == workers
        # a resumed sweep counts only its 3 pending one-word blocks
        ck = str(tmp_path / "sweep.ck")
        with crash_after(30):
            exhaustive_verify(2, 6, checkpoint_path=ck)
        pools.clear()
        monkeypatch.setattr(fsdsq.sweep, "WORDS_PER_WORKER", 2)
        assert _json(exhaustive_verify(2, 6, checkpoint_path=ck, parallelism=64)) == serial
        assert pools == []

    def test_ceiling_override_flag(self):
        report = exhaustive_verify(alphabet_size=4, max_len=5, allow_over_ceiling=True)
        assert report.findings == ()

    @pytest.mark.parametrize("alphabet_size, max_len", [(2, 12), (3, 8)])
    def test_fold_order_does_not_change_report(self, alphabet_size, max_len):
        # the JSON report sorts each run_hist itself, and no other field
        # reads the order of a run_hist, so the fold needs no re-sort
        b, blocks = _plan_blocks(alphabet_size, max_len)

        def fold(order):
            done = dict(_process_block((alphabet_size, max_len, b, block_id))
                        for block_id in blocks)
            report = _fold(order, done, alphabet_size, max_len)
            return json.dumps(report.to_json_dict(), sort_keys=True)

        assert fold(blocks[::-1]) == fold(blocks)

    def test_fold_peak_stays_near_the_report(self):
        # the fold sums each length into its first block record and drops
        # every block once merged, so no second copy of the report is held
        tracemalloc.start()
        try:
            report = exhaustive_verify(alphabet_size=1, max_len=5000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.total_words == 5000 and len(report.per_length) == 5000
        assert peak / held < 1.4


class TestDeterminism:
    def test_parallelism_does_not_change_report(self, monkeypatch):
        monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", 5)
        monkeypatch.setattr(fsdsq.sweep, "WORDS_PER_WORKER", 1)
        seq = exhaustive_verify(2, 12)
        par = exhaustive_verify(2, 12, parallelism=3)
        assert _json(seq) == _json(par)

    def test_resume_equivalence(self, tmp_path, monkeypatch, crash_after):
        monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", 5)
        monkeypatch.setattr(fsdsq.sweep, "WORDS_PER_WORKER", 1)
        ck = str(tmp_path / "sweep.ck")
        with crash_after(4):
            exhaustive_verify(2, 12, checkpoint_path=ck)
        assert len((tmp_path / "sweep.ck").read_text().splitlines()) == 1 + 4
        resumed = exhaustive_verify(2, 12, checkpoint_path=ck, parallelism=2)
        fresh = exhaustive_verify(2, 12)
        assert _json(resumed) == _json(fresh)

    def test_checkpoint_format(self, tmp_path):
        ck = str(tmp_path / "sweep.ck")
        exhaustive_verify(2, 8, checkpoint_path=ck)
        lines = (tmp_path / "sweep.ck").read_text().splitlines()
        assert lines[0] == (
            "fsdsq-sweep-checkpoint\tversion=2\talphabet_size=2\tmax_len=8"
            "\tblock_prefix_len=7\tproperties=census_max_two,distinct_below_twice_length,"
            "factorization_roundtrip,pair_shapes,equal_pair_checks,unequal_pair_checks,"
            "adjacent_mates,pair_end_order,run_length_bound")
        for line in lines[1:]:
            kind, block_id, payload = line.split("\t", 2)
            assert kind == "block"
            json.loads(payload)

    @pytest.mark.parametrize("alphabet_size,max_len,b", [
        (2, 7, 7), (2, 12, 7), (3, 10, 5), (4, 6, 5), (2, 4, 4), (3, 4, 4), (4, 2, 2)])
    def test_header_records_block_plan(self, tmp_path, alphabet_size, max_len, b):
        ck = tmp_path / "sweep.ck"
        exhaustive_verify(alphabet_size, max_len, checkpoint_path=str(ck))
        lines = ck.read_text().splitlines()
        assert f"\tblock_prefix_len={b}\t" in lines[0]
        assert len(lines) == 1 + len(_plan_blocks(alphabet_size, max_len)[1])

    def test_checkpoint_of_unchanged_plan_resumes(self, tmp_path):
        # binary keeps suffixes of 7, so an older checkpoint still resumes
        ck = tmp_path / "sweep.ck"
        old = (DATA / "checkpoint-bin9-suffix7.txt").read_bytes()
        ck.write_bytes(old)
        resumed = exhaustive_verify(2, 9, checkpoint_path=str(ck))
        assert _json(resumed) == _json(exhaustive_verify(2, 9))
        data = ck.read_bytes()
        assert data.startswith(old)
        assert len(data.splitlines()) == 1 + 65

    def test_checkpoint_of_older_plan_refused(self, tmp_path, capsys):
        ck = tmp_path / "sweep.ck"
        old = (DATA / "checkpoint-ter10-suffix7.txt").read_bytes()
        ck.write_bytes(old)
        code = main(["verify", "--alphabet-size", "3", "--max-len", "10",
                     "--checkpoint", str(ck)])
        err = capsys.readouterr().err
        assert code == 1
        assert "does not match" in err and "block_prefix_len=7" in err
        assert ck.read_bytes() == old

    def test_checkpoint_config_mismatch_rejected(self, tmp_path, capsys):
        ck = tmp_path / "sweep.ck"
        exhaustive_verify(2, 8, checkpoint_path=str(ck))
        with pytest.raises(ValueError, match="does not match"):
            exhaustive_verify(2, 9, checkpoint_path=str(ck))
        # the start of another sweep's header, with no newline yet
        data = b"fsdsq-sweep-checkpoint\tversion=2\talphabet_size=3"
        ck.write_bytes(data)
        assert main(["verify", "--max-len", "3", "--checkpoint", str(ck)]) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {ck} does not match this sweep configuration: "
            "it has alphabet_size=3\n")
        assert ck.read_bytes() == data

    def test_empty_checkpoint_path_is_refused(self):
        # an empty path asks for a checkpoint too; it must not be read as none
        with pytest.raises(OSError):
            exhaustive_verify(2, 6, checkpoint_path="")

    @pytest.mark.parametrize("cut", [1, 7, 40])
    def test_line_cut_short_is_recomputed(self, tmp_path, cut, monkeypatch, crash_after):
        monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", 5)
        ck = tmp_path / "sweep.ck"
        with crash_after(6):
            exhaustive_verify(2, 12, checkpoint_path=str(ck))
        data = ck.read_bytes()
        ck.write_bytes(data[:-cut])  # a crash in the middle of the last line
        resumed = exhaustive_verify(2, 12, checkpoint_path=str(ck))
        assert _json(resumed) == _json(exhaustive_verify(2, 12))
        lines = ck.read_text().split("\n")
        assert lines[-1] == ""
        block_ids = [line.split("\t")[1] for line in lines[1:-1]]
        assert sorted(block_ids) == sorted(set(block_ids))
        assert len(block_ids) == 1 + len(list(canonical_words(2, 5)))
        # the repaired file resumes again to the same report
        again = exhaustive_verify(2, 12, checkpoint_path=str(ck))
        assert _json(again) == _json(resumed)

    def test_version_one_is_refused_by_name(self, tmp_path, capsys):
        ck = tmp_path / "sweep.ck"
        exhaustive_verify(2, 8, checkpoint_path=str(ck))
        text = ck.read_text().replace("\tversion=2\t", "\tversion=1\t", 1)
        ck.write_text(text)
        code = main(["verify", "--max-len", "8", "--checkpoint", str(ck)])
        err = capsys.readouterr().err
        assert code == 1
        assert "version 1" in err and "does not match" not in err
        assert ck.read_text() == text

    @pytest.mark.parametrize("data", [b"\n\n", b"\xff\xfe\n", b"xyz"])
    def test_foreign_file_is_not_a_checkpoint(self, tmp_path, capsys, data):
        ck = tmp_path / "sweep.ck"
        ck.write_bytes(data)
        code = main(["verify", "--max-len", "3", "--checkpoint", str(ck)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {ck} is not an fsdsq sweep checkpoint\n"
        assert ck.read_bytes() == data

    def test_unknown_block_refused(self, tmp_path, capsys):
        ck = tmp_path / "sweep.ck"
        exhaustive_verify(2, 9, checkpoint_path=str(ck))
        header = ck.read_bytes().split(b"\n")[0]
        data = header + b'\nblock\tzzzzzzz\t{"findings": [], "lengths": {}}\n'
        ck.write_bytes(data)
        assert main(["verify", "--max-len", "9", "--checkpoint", str(ck)]) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {ck} line 2 is not a block record\n")
        assert ck.read_bytes() == data

    def test_blank_line_refused(self, tmp_path, capsys):
        # the sweep never writes an empty line, so one is no block record
        ck = tmp_path / "sweep.ck"
        argv = ["verify", "--max-len", "8", "--checkpoint", str(ck)]
        assert main(argv) == 0
        header, rest = ck.read_bytes().split(b"\n", 1)
        data = header + b"\n\n" + rest
        ck.write_bytes(data)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {ck} line 2 is not a block record\n")
        assert ck.read_bytes() == data

    @pytest.mark.parametrize("line", [2, 3], ids=["shorter", "suffix"])
    @pytest.mark.parametrize("edit", ["count", "missing", "extra"])
    def test_forged_word_counts_refused(self, tmp_path, capsys, line, edit):
        # a record that parses but does not count its block's words exactly
        ck = tmp_path / "sweep.ck"
        argv = ["verify", "--alphabet-size", "3", "--max-len", "8", "--checkpoint", str(ck)]
        assert main(argv) == 0
        lines = ck.read_bytes().split(b"\n")
        kind, block_id, payload = lines[line - 1].split(b"\t", 2)
        record = json.loads(payload)
        lengths = record["lengths"]
        first, last = min(lengths, key=int), max(lengths, key=int)
        if edit == "count":
            lengths[first]["run_hist"]["0"] += 90
        elif edit == "missing":
            del lengths[first]
        else:
            lengths[str(int(last) + 1)] = lengths[last]
        lines[line - 1] = b"\t".join([kind, block_id, json.dumps(record).encode()])
        data = b"\n".join(lines)
        ck.write_bytes(data)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {ck} line {line} is not a block record\n")
        assert ck.read_bytes() == data

    @pytest.mark.parametrize("edit", ["run", "words"])
    def test_forged_stats_refused(self, tmp_path, capsys, edit):
        # a record that counts its block's words exactly but whose stored
        # max_run or words is not what its run_hist gives
        ck = tmp_path / "sweep.ck"
        argv = ["verify", "--alphabet-size", "3", "--max-len", "8", "--checkpoint", str(ck)]
        assert main(argv) == 0
        lines = ck.read_bytes().split(b"\n")
        line = next(number for number, text in enumerate(lines, 1)
                    if text.startswith(b"block\taaaaa\t"))
        kind, block_id, payload = lines[line - 1].split(b"\t", 2)
        record = json.loads(payload)
        st = record["lengths"]["8"]
        if edit == "run":  # one word moved from run 0 to run 3; max_run stays 0
            st["run_hist"]["0"] -= 1
            st["run_hist"]["3"] = 1
        else:
            st["words"] += 1
        lines[line - 1] = b"\t".join([kind, block_id, json.dumps(record).encode()])
        data = b"\n".join(lines)
        ck.write_bytes(data)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint {ck} line {line} is not a block record\n")
        assert ck.read_bytes() == data

    def test_checkpoint_is_appended_not_rewritten(self, tmp_path, monkeypatch, crash_after):
        monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", 4)
        ck = tmp_path / "sweep.ck"
        with crash_after(3):
            exhaustive_verify(2, 10, checkpoint_path=str(ck))
        first = ck.read_text()
        exhaustive_verify(2, 10, checkpoint_path=str(ck))
        assert ck.read_text().startswith(first)


def _reference_per_length(alphabet_size, max_len):
    """Per-length stats from a full census of every left-canonical word."""
    out = {}
    for n in range(1, max_len + 1):
        st = out[n] = LengthStats()
        for text in canonical_words(alphabet_size, n):
            word = Word.from_text(text)
            report = s_sequence(word)
            run = report.longest_run[1]
            st.max_distinct_squares = max(st.max_distinct_squares,
                                          report.distinct_square_count)
            st.run_hist[run] = st.run_hist.get(run, 0) + 1
            st.double_square_positions += sum(1 for v in report.s if v >= 2)
            for pair in find_double_square_pairs(find_fs_double_squares(word, report.roots)):
                if pair.kind is PairKind.EQUAL:
                    st.pairs_equal += 1
                elif pair.kind is PairKind.UNEQUAL:
                    st.pairs_unequal += 1
    return out


def _reference_process_block(args):
    """``_process_block`` with one ``LengthStats`` per length, updated word by
    word, and a ``check_word`` run on every word with a double square."""
    alphabet_size, max_len, b, block_id = args
    lengths = {}
    findings = []

    def visit(buf, i, distinct, doubles):
        st = lengths.setdefault(len(buf) - i, LengthStats())
        st.max_distinct_squares = max(st.max_distinct_squares, distinct)
        st.double_square_positions += len(doubles)
        run = 0
        if doubles:
            word = Word(_left_canonical(buf[i:]))
            checked = check_word(word, {k - i + 1: ps for k, ps in doubles.items()}, distinct)
            run = checked.run
            kinds = [pair.kind for pair in checked.pairs]
            st.pairs_equal += kinds.count(PairKind.EQUAL)
            st.pairs_unequal += kinds.count(PairKind.UNEQUAL)
            findings.extend((prop, word.text, detail) for prop, detail in checked.findings)
        st.run_hist[run] = st.run_hist.get(run, 0) + 1
        return True

    if block_id:
        fsdsq.sweep._walk(alphabet_size, max_len, Word.from_text(block_id).codes, visit)
    elif b > 1:
        fsdsq.sweep._walk(alphabet_size, b - 1, b"", visit)
    return block_id, {"lengths": lengths, "findings": findings}


class TestBlockRecords:
    """A block's record, counted by buffer index, against a visitor that
    keeps one record per length word by word."""

    @pytest.mark.parametrize("alphabet_size,max_len", [
        (1, 40), (2, 14), (3, 10), (4, 9), (5, 8),
        *[(a, n) for a in (1, 2, 3) for n in (1, 2, 3)],  # the empty and b == 1 blocks
    ])
    @pytest.mark.parametrize("block_len", [1, 3, 7])
    def test_block_lines_match_the_per_word_visitor(self, alphabet_size, max_len, block_len,
                                                      monkeypatch):
        monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", block_len)
        b, blocks = _plan_blocks(alphabet_size, max_len)
        for block_id in blocks:
            args = (alphabet_size, max_len, b, block_id)
            assert _block_line(*_process_block(args)) == _block_line(
                *_reference_process_block(args))


def _read_off(doubles):
    """The longest run of 2's and the largest s_i (0 if below 2) that a
    visitor reads off the walk's ``doubles``."""
    run = max((length for _, length in runs_of_two(doubles)), default=0)
    return run, max(map(len, doubles.values()), default=0)


class TestLeftExtensionSweep:
    """The incremental sweep against a full census of every word."""

    @pytest.mark.parametrize("alphabet_size,max_len,suffix", [
        (2, 12, ""), (3, 8, ""),
        # abbababbabbababba has two census-2 positions that are not adjacent
        (2, 20, "abbababbabbababba"[-12:]),
    ])
    def test_carried_state_matches_census_per_word(self, alphabet_size, max_len, suffix):
        seen = []

        def visit(buf, i, distinct, doubles):
            word = Word(buf[i:])
            text = word.text
            report = s_sequence(word)
            assert text.endswith(suffix)
            assert text[-1] == "a"
            assert distinct == report.distinct_square_count
            run, max_s = _read_off(doubles)
            top = max(report.s, default=0)
            assert max_s == (top if top >= 2 else 0)
            assert run == report.longest_run[1]
            assert {k - i + 1: ps for k, ps in doubles.items()} == {
                pos: ps for pos, ps in report.roots.items() if len(ps) >= 2}
            seen.append((text, len(doubles), run))
            return True

        fsdsq.sweep._walk(alphabet_size, max_len, Word.from_text(suffix).codes, visit)
        texts = [t for t, _, _ in seen]
        assert len(texts) == len(set(texts))
        if suffix:
            assert len(texts) == 2 ** (max_len - len(suffix) + 1) - 1
            assert any(d > r for _, d, r in seen)  # separated census-2 positions
        else:
            # reversed, the walk lists exactly the left-canonical words
            assert sorted(t[::-1] for t in texts) == sorted(
                t for n in range(1, max_len + 1) for t in canonical_words(alphabet_size, n))

    @pytest.mark.parametrize("alphabet_size,max_len,suffix", [
        (2, 10, ""), (3, 7, ""), (2, 18, "abbababbabbababba"[-12:]),
        # most new letters, which skip the census step
        (4, 6, ""), (5, 6, ""),
    ])
    def test_carried_state_matches_oracle(self, alphabet_size, max_len, suffix):
        # The walk and s_sequence share the census step; this checks the
        # carried state against the brute-force oracle instead.
        seen = []

        def visit(buf, i, distinct, doubles):
            text = Word(buf[i:]).text
            rightmost = oracle_rightmost(text)
            s = oracle_s(text, rightmost)
            assert distinct == sum(s)
            run, max_s = _read_off(doubles)
            assert max_s == (max(s) if max(s) >= 2 else 0)
            assert run == oracle_longest_run(text)[1]
            roots: dict[int, list[int]] = {}
            for value, start in rightmost.items():
                roots.setdefault(start, []).append(len(value) // 2)
            assert {k - i + 1: ps for k, ps in doubles.items()} == {
                pos: sorted(ps) for pos, ps in roots.items() if len(ps) >= 2}
            seen.append(len(doubles))
            return True

        fsdsq.sweep._walk(alphabet_size, max_len, Word.from_text(suffix).codes, visit)
        if suffix:
            assert len(seen) == 2 ** (max_len - len(suffix) + 1) - 1
            assert max(seen) >= 2
        else:
            assert len(seen) == sum(1 for n in range(1, max_len + 1)
                                    for _ in canonical_words(alphabet_size, n))

    @pytest.fixture(scope="class", params=[(2, 12), (3, 8)], ids=["bin12", "ter8"])
    def reference(self, request):
        alphabet_size, max_len = request.param
        return alphabet_size, max_len, _reference_per_length(alphabet_size, max_len)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("block_len", [1, 3, 7])
    def test_stats_match_full_census(self, reference, block_len, jobs, monkeypatch):
        alphabet_size, max_len, expected = reference
        monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", block_len)
        monkeypatch.setattr(fsdsq.sweep, "WORDS_PER_WORKER", 1)  # a real pool at jobs=2
        report = exhaustive_verify(alphabet_size, max_len, parallelism=jobs)
        assert report.findings == ()
        assert report.per_length == expected

    def test_planted_findings_are_left_canonical_and_sorted(self, monkeypatch):
        def planted(word, roots):
            raise CounterexampleError("planted")

        monkeypatch.setattr(fsdsq.pairs, "find_fs_double_squares", planted)
        monkeypatch.setattr(fsdsq.sweep, "WORDS_PER_WORKER", 1)  # a real pool at jobs=2
        expected = [text for n in range(1, 13) for text in canonical_words(2, n)
                    if max(s_sequence(Word.from_text(text)).s, default=0) >= 2]
        assert len(expected) > 10
        for block_len in (1, 3, 7):
            monkeypatch.setattr(fsdsq.sweep, "BLOCK_SUFFIX_LEN", block_len)
            for jobs in (1, 2):
                report = exhaustive_verify(2, 12, parallelism=jobs)
                assert [f.word for f in report.findings] == expected
                assert {(f.property, f.detail) for f in report.findings} == {
                    ("factorization_roundtrip", "planted")}


class TestProbeSkips:
    """The probes that the walk skips, against the cubic oracle: a letter
    absent from the suffix has m_i = 0, and with no room after the witness
    m_i <= m_{i+1} (the facts of the ``census`` docstring)."""

    @pytest.mark.parametrize("alphabet_size,max_len", [(2, 12), (3, 8), (4, 7), (5, 6)])
    def test_against_oracle(self, alphabet_size, max_len, monkeypatch):
        oracle = cache(oracle_later_match)
        make = fsdsq.sweep._census_step
        fired = {"absent": 0, "room": 0}

        def checked(codes):
            step = make(codes)
            n = len(codes)

            def checked_step(i, m, j):
                text = Word(codes[i:]).text
                assert text[0] in text[1:]  # the walk skips an absent letter
                # the carried state: m_{i+1} and the nearest start of its match
                x = text[1:1 + m]
                assert m == oracle(text[1:])[0]
                assert j == i + 1 + next(k for k in range(1, n - i) if text[1 + k:].startswith(x))
                if codes[j - 1] != codes[i] and j + m + 1 > n:
                    assert oracle(text)[0] <= m
                    fired["room"] += 1
                return step(i, m, j)

            return checked_step

        def visit(buf, i, distinct, doubles):
            text = Word(buf[i:]).text
            if text[0] not in text[1:]:
                assert oracle(text)[0] == 0
                fired["absent"] += 1
            return True

        monkeypatch.setattr(fsdsq.sweep, "_census_step", checked)
        fsdsq.sweep._walk(alphabet_size, max_len, b"", visit)
        # "a", and each word over fewer letters than the alphabet, shorter
        # than max_len, with a new letter prepended
        assert fired["absent"] == 1 + sum(
            1 for n in range(1, max_len) for t in canonical_words(alphabet_size, n)
            if len(set(t)) < alphabet_size)
        assert fired["room"] > 0


def test_public_names():
    for name in fsdsq.__all__:
        assert getattr(fsdsq, name) is not None
    for gone in ("SweepInterrupted", "cost_ceiling", "iter_canonical_words",
                 "extremal_ratio", "RatioTable", "ExtensionBudgetError",
                 "rightmost_map", "run_report", "FindingError", "ForbiddenPairError",
                 "UnclassifiablePairError", "minimal_pair_length", "_check_cost",
                 "infeasible_detail", "COST_CEILING", "SweepConfig", "WALK_STACK_MARGIN",
                 "_longest_run"):
        assert gone not in fsdsq.__all__
        assert not hasattr(fsdsq, gone) and not hasattr(fsdsq.sweep, gone)
    assert not hasattr(fsdsq.pairs, "infeasible_detail")
    assert not hasattr(CensusReport, "max_s")
    assert not hasattr(fsdsq.census, "rightmost_map")
    assert not hasattr(fsdsq.construct, "run_report")
    assert not hasattr(fsdsq.RunReport, "bound_ok")
    assert "elapsed_seconds" not in [f.name for f in dataclasses.fields(SweepReport)]
    assert list(inspect.signature(SweepReport.to_json_dict).parameters) == ["self"]
    for gone in ("ExtensionBudgetError", "FindingError", "ForbiddenPairError",
                 "UnclassifiablePairError"):
        assert not hasattr(fsdsq.errors, gone)
    assert fsdsq.CounterexampleError.__bases__ == (Exception,)
    assert not hasattr(fsdsq.sweep, "COST_CEILING_ENV")
    assert not hasattr(Word, "rotate") and not hasattr(Word, "__rmul__")
    assert list(inspect.signature(exhaustive_verify).parameters) == [
        "alphabet_size", "max_len", "checkpoint_path", "parallelism",
        "allow_over_ceiling"]
    # the run of 2's, the word count and the distinct total are derived
    assert [f.name for f in dataclasses.fields(LengthStats)] == [
        "max_distinct_squares", "run_hist", "pairs_equal", "pairs_unequal",
        "double_square_positions"]
    # the census keeps its roots in two arrays; ``roots`` is built from them
    assert [f.name for f in dataclasses.fields(CensusReport)] == [
        "word", "s", "runs_of_two", "doubles", "min_roots"]
    assert "roots" in dir(CensusReport)


class TestMinimalPairLength:
    """The shortest length with two adjacent 2's is ``min_length_per_run[2]``."""

    def test_none_below_seventeen(self):
        assert 2 not in exhaustive_verify(2, 12).min_length_per_run

    def test_unary_never(self):
        assert exhaustive_verify(1, 20).min_length_per_run == {}

    def test_witness_is_verified(self):
        assert exhaustive_verify(2, 17).min_length_per_run == {1: 10, 2: 17}
        witness = build_run(2).word
        assert len(witness) == 17
        s = s_sequence(witness).s
        assert any(s[i] == 2 and s[i + 1] == 2 for i in range(len(s) - 1))


def _reference_order(alphabet_size, max_len, suffix, keep):
    """The right-canonical words of at most ``max_len`` letters that end in
    ``suffix``, in pre-order with letters ascending, by recursion; below a
    word only if ``keep`` holds for it."""
    out = []

    def rec(text, used):
        out.append(text)
        if keep(text) and len(text) < max_len:
            for c in range(min(used + 1, alphabet_size - 1) + 1):
                rec(chr(ord("a") + c) + text, max(c, used))

    start = suffix or "a"
    rec(start, max(Word.from_text(start).codes))
    return out


class TestWalk:
    """The walk keeps its own stack: no length is too deep for it, whoever
    calls it, and it visits the words in the order a recursion would."""

    def test_deep_caller_gets_its_answer(self):
        def nested(depth):
            return nested(depth - 1) if depth else exhaustive_verify(1, 900)

        report = nested(150)
        assert report.total_words == 900
        assert report.findings == ()

    def test_long_unary_sweep_runs_through_cli(self, capsys):
        assert main(["verify", "--alphabet-size", "1", "--max-len", "5000",
                     "--deterministic", "-f", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_words"] == 5000
        assert payload["findings"] == []
        assert {int(n): st["max_distinct_squares"] for n, st in payload["per_length"].items()} \
            == {n: n // 2 for n in range(1, 5001)}

    @pytest.mark.parametrize("alphabet_size", [2, 40])
    def test_ceiling_is_the_first_refusal(self, alphabet_size):
        with pytest.raises(CostCeilingError, match="over the ceiling"):
            exhaustive_verify(alphabet_size, 901)

    @pytest.mark.parametrize("alphabet_size,max_len,suffix,prune", [
        (2, 10, "", False), (3, 7, "", False),
        (2, 12, "abbababbabbababba"[-7:], False), (3, 7, "", True),
        # at the next-to-last length, whose children the walk visits in a loop
        (3, 7, "", "next-to-last"), (2, 10, "", "next-to-last b"),
    ])
    def test_visit_order_matches_a_recursion(self, alphabet_size, max_len, suffix, prune):
        def keep(text):
            if prune == "next-to-last":
                return len(text) != max_len - 1
            if prune == "next-to-last b":
                return len(text) != max_len - 1 or not text.startswith("b")
            return not (prune and text.startswith("b"))

        seen = []

        def visit(buf, i, distinct, doubles):
            seen.append(Word(buf[i:]).text)
            return keep(seen[-1])

        fsdsq.sweep._walk(alphabet_size, max_len, Word.from_text(suffix).codes, visit)
        assert seen == _reference_order(alphabet_size, max_len, suffix, keep)
        rejected = {t for t in seen if not keep(t)}
        assert not prune or any(len(t) < max_len for t in rejected)
        assert not any(t[1:] in rejected for t in seen)  # no child of a rejected word
        if prune == "next-to-last b":
            assert any(len(t) == max_len for t in seen)


class TestExtremalRatio:
    def test_binary_to_twelve(self):
        report = exhaustive_verify(alphabet_size=2, max_len=12)
        assert report.findings == ()
        by_n = {n: st.max_run for n, st in report.per_length.items()}
        assert sorted(by_n) == list(range(1, 13))
        assert all(by_n[n] == 0 for n in range(1, 10))
        assert all(by_n[n] == 1 for n in range(10, 13))
        for n, t in by_n.items():
            assert 7 * t < n


class TestCheckWord:
    def test_planted_run_breaks_the_run_bound(self):
        # a run of three 2's in 17 letters: 7*3 >= 17
        word = Word.from_text(EQUAL_17)
        roots = {**s_sequence(word).roots, 3: [5, 8]}
        findings = check_word(word, roots, 10).findings
        assert [prop for prop, _ in findings].count("run_length_bound") == 1
        assert ("run_length_bound", "7*3 >= 17") in findings

    def test_three_roots_break_the_census_bound_and_the_factorization(self):
        checked = check_word(Word.from_text("abaab"), {1: [1, 2, 3]}, 3)
        assert (checked.squares, checked.pairs) == ((), ())
        assert checked.findings == (
            ("census_max_two", "max s_i = 3"),
            ("factorization_roundtrip", "position 1 of 'abaab' starts 3 rightmost squares; "
                                        "at most two should be possible"),
        )

    def test_census_two_positions_alone_give_the_same_check(self):
        texts = [text for n in range(1, 13) for text in all_words(2, n)]
        texts += [EQUAL_17, W1, W2, CASE_10, UNEQUAL_39, UNEQUAL_67, *SEEDS]
        texts += [build_run(t).word.text for t in range(1, 41)]
        for text in texts:
            report = s_sequence(Word.from_text(text))
            doubles = {k: ps for k, ps in report.roots.items() if len(ps) >= 2}
            distinct = report.distinct_square_count
            assert check_word(report.word, report.roots, distinct) == \
                check_word(report.word, doubles, distinct), text

    def test_planted_count_breaks_the_distinct_bound(self):
        assert check_word(Word.from_text("ab"), {}, 4).findings == (
            ("distinct_below_twice_length", "4 distinct squares at length 2"),)

    def test_every_finding_names_a_listed_property(self, monkeypatch):
        def emitted(text, roots=None, distinct=None):
            word = Word.from_text(text)
            report = s_sequence(word)
            checked = check_word(word, report.roots if roots is None else roots,
                                 report.distinct_square_count if distinct is None else distinct)
            return {prop for prop, _ in checked.findings}

        names = emitted("abaab", {1: [1, 2, 3]}, 3)  # census_max_two, factorization_roundtrip
        names |= emitted("ab", {}, 4)  # distinct_below_twice_length
        # run_length_bound
        names |= emitted(EQUAL_17, {**s_sequence(Word.from_text(EQUAL_17)).roots, 3: [5, 8]})
        names |= emitted(CASE_10)  # pair_shapes, adjacent_mates
        for checks in ("_equal_checks", "_unequal_checks"):
            monkeypatch.setattr(fsdsq.pairs, checks, lambda first, second: (Check("x", False),))
        names |= emitted(EQUAL_17) | emitted(UNEQUAL_39)  # the two pair checks
        # planted squares: roots 5/8 at 1 (ends at 16), roots 3/5 at 2 (ends at 11)
        first = squares_of(Word.from_text(EQUAL_17))[0]
        second = double_square(2, "a", "b", 1, 1)  # the split of abaababaab
        monkeypatch.setattr(fsdsq.pairs, "find_fs_double_squares",
                            lambda word, roots: [first, second])
        names |= emitted(EQUAL_17)  # pair_end_order
        assert names == set(ALL_PROPERTIES)
