import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fsdsq.construct
import fsdsq.pairs
import fsdsq.sweep
from fsdsq.cli import _build_parser, main
from fsdsq.double_squares import (MateClassification, MateLabel,
                                  find_fs_double_squares)
from fsdsq.errors import CounterexampleError
from fsdsq.words import Word
from named_words import (CASE_10, EQUAL_17, EQUAL_17_S, SEEDS, UNEQUAL_39,
                         UNEQUAL_67, W1, W2)
from test_census import _fibonacci, random_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensus:
    def test_tsv(self, capsys):
        code, out, err = run(capsys, "census", EQUAL_17, "--format", "tsv")
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "index\tletter\ts_i"
        assert len(rows) == 18
        assert [int(r.split("\t")[2]) for r in rows[1:]] == EQUAL_17_S
        assert "distinct_squares=10" in err

    def test_plain_tiny(self, capsys):
        code, out, _ = run(capsys, "census", "ab")
        assert code == 0
        assert "distinct squares: 0" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "census", EQUAL_17, "-f", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["s"] == EQUAL_17_S
        assert payload["longest_run"] == {"start": 1, "length": 2}

    def test_module_entry_point(self, capsys):
        # ``python -m fsdsq`` from a checkout, as the README shows it
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-m", "fsdsq", "census", "ab", "-f", "json"],
                              capture_output=True, text=True, check=False,
                              env={**os.environ, "PYTHONPATH": str(src)})
        code, out, err = run(capsys, "census", "ab", "-f", "json")
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err) == (0, out, "")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text(EQUAL_17 + "\nab\n")
        code, out, _ = run(capsys, "census", "@" + str(path), "-f", "tsv")
        assert code == 0
        assert out.count("index\tletter\ts_i") == 2

    def test_word_named_like_a_file_is_a_word(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "abab").write_text(EQUAL_17 + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "census", "abab", "-f", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == "abab"
        assert payload["s"] == [1, 0, 0, 0]

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "census", "@" + str(tmp_path / "none.txt"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("line,detail", [
        (b"\xff", "'ascii' codec can't decode byte 0xff in position 0: "
                  "ordinal not in range(128)"),
        (b"Ab", "invalid word character 'A': lowercase letters only"),
    ], ids=["not-ascii", "not-a-word"])
    def test_bad_line_names_file_and_line(self, capsys, tmp_path, line, detail):
        path = tmp_path / "words.txt"
        path.write_bytes(b"ab\n" + line + b"\n")
        code, out, err = run(capsys, "census", "@" + str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} line 2: {detail}\n"

    # sha256 of ``census -f json`` and ``analyze -f json`` on long words: a
    # change to the census or the analysis that alters any byte changes these.
    @pytest.mark.parametrize("word,census_digest,analyze_digest", [
        (_fibonacci(2000),
         "f8b6a3b63891f1e2cfd0d039c2717aa5a3b726cbbcedbce7adf317e544351f7b",
         "ae1853eb00021625b11374ca71a294fd7bda4eae3d54892c43f74a575884e0f8"),
        ("a" * 10_000,
         "4ca0442260b41471cefe228657be6059ea0b4d2ff52142b5767014734bf4d851",
         "24abf91535241c7470ec7a81d696be5f48b371528edde9fdc4a6807aa613e4cc"),
        (random_word("ab", 1500, 2),
         "dd78e394cfd522db7da8df5e14826226cdb0fadd1f4b9512f7c66a5a81db4f72",
         "dea98a8fb49fbda58b68c0b3ed23e6e0ac51111cda17ce1fce1bb79ccedaab67"),
        (random_word("abc", 1500, 3),
         "b32d82bcc33154b686d32c64a0a3a1829a13fac645a030361bdc7ef5ad700094",
         "d4e7301eba1092354b910ad186b13dc234d2dd45c2a45b0e53fe8f78b9d30850"),
    ], ids=["fibonacci-2000", "unary-10000", "random-binary-1500", "random-ternary-1500"])
    def test_long_word_json_is_pinned(self, capsys, word, census_digest, analyze_digest):
        for command, digest in (("census", census_digest), ("analyze", analyze_digest)):
            code, out, _ = run(capsys, command, word, "-f", "json")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the JSON of the structure records: double squares, pairs with
    # their checks and mates, and constructed run reports.  UNEQUAL_67 is the
    # only word here whose mate rule is ``rotated_suffix``.
    @pytest.mark.parametrize("argv,digest", [
        (("analyze", EQUAL_17),
         "d88b25646d5532bb508729e015c519bb88b6d44f1de336a46aad2f13724c010f"),
        (("analyze", W1),
         "9b7a4a9076bc594f794c0131a894e85bbd9ff891e2ac3a9ebc4d96edc68bd82a"),
        (("analyze", W2),
         "311429924bada7af42f151f1533d27f4aa7edbda3b7790b85020b2a079ea8a29"),
        (("analyze", CASE_10),
         "dcf62b048424b5132fcf42f96055de44e6f42ba017f2c21307868b6e33b880d8"),
        (("analyze", UNEQUAL_39),
         "c5656e94b448ee6ce051ab930e42b0559333007d7e7df924c70aafa435e19c61"),
        (("analyze", UNEQUAL_67),
         "b3387a58079436a20d5c974519a045c6d03ed4215d4d954e7743253360ee5e86"),
        (("generate", "--kind", "run", "--target", "40"),
         "f45d530a5ce5327a74c8ab870f112c039a6d7b3cb48de02ebadd82377a3957c1"),
        (("generate", "--kind", "equal", "--seed", "abaababaabaababa"),
         "d1771fc92885ff71b92858f8a2c9482cbf722f0835d734baa1847b1e5385c3be"),
        (("generate", "--kind", "unequal", "--seed", "abaababaabaababa", "--variant", "short"),
         "160f9ca15e2f889bb0ab93a2216fd2ee19a7b03f36493e1c23432767b0f5637a"),
        (("generate", "--kind", "unequal", "--seed", "abaababaabaababa", "--variant", "long"),
         "1380c0cb20e1d411fcd79cd7439677759fbc654c1c780c5c1b893e29fddfbca4"),
    ], ids=["analyze-equal-17", "analyze-w1", "analyze-w2", "analyze-case-10",
            "analyze-unequal-39", "analyze-unequal-67", "generate-run-40", "generate-equal",
            "generate-unequal-short", "generate-unequal-long"])
    def test_structure_json_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv, "-f", "json")
        assert code == (2 if CASE_10 in argv else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_invalid_characters(self, capsys):
        code, _, err = run(capsys, "census", "abC")
        assert code == 1
        assert "error" in err


class TestAnalyze:
    def test_one_census_per_word(self, capsys, census_calls):
        for text in ("abaababaab", EQUAL_17, W1, "ab"):
            census_calls.clear()
            run(capsys, "analyze", text, "-f", "json")
            assert census_calls == [Word.from_text(text).codes]

    def test_single_double_square(self, capsys):
        code, out, _ = run(capsys, "analyze", "abaababaab")
        assert code == 0
        assert "FS-double square at 1" in out
        assert "adjacent pair" not in out

    def test_equal_pair_json(self, capsys):
        code, out, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["double_squares"]) == 2
        pair = payload["pairs"][0]
        assert pair["kind"] == "equal"
        assert pair["case"] == 12
        assert pair["mate"] == "alpha"
        assert all(c["pass"] for c in pair["checks"])
        assert payload["findings"] == []

    def test_w1_unequal_delta(self, capsys):
        code, out, _ = run(capsys, "analyze", W1, "-f", "json")
        assert code == 0
        pair = json.loads(out)["pairs"][0]
        assert pair["kind"] == "unequal"
        assert pair["mate"] == "delta"
        assert pair["first"] == {"position": 1, "sq_len": 4, "SQ_len": 7,
                                 "x1": "a", "x2": "ab", "p1": 1, "p2": 1}

    def test_byte_identical_across_invocations(self, capsys):
        _, out1, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        _, out2, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert out1 == out2

    def test_mate_finding_matches_verify(self, capsys, monkeypatch):
        monkeypatch.setattr(fsdsq.pairs, "classify_mate_detail",
                            lambda first, second: MateClassification(MateLabel.BETA))
        code, out, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["pairs"][0]["mate"] == "beta"
        expected = {"property": "adjacent_mates", "detail": "position 1: mate beta"}
        assert payload["findings"] == [expected]
        code, out, _ = run(capsys, "verify", "--max-len", "17", "-f", "json",
                           "--deterministic")
        assert code == 2
        assert [{"property": f["property"], "detail": f["detail"]}
                for f in json.loads(out)["findings"] if f["word"] == EQUAL_17] == [expected]

    def test_pair_shapes_finding_matches_verify(self, capsys, monkeypatch):
        monkeypatch.setattr(fsdsq.pairs, "ordering_case", lambda *lengths: 1)
        code, out, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert code == 2
        payload = json.loads(out)
        assert set(payload) == {"schema_version", "word", "n", "s", "double_squares",
                                "pairs", "findings"}
        assert payload["s"] == EQUAL_17_S
        assert [sq["position"] for sq in payload["double_squares"]] == [1, 2]
        [pair] = payload["pairs"]
        assert (pair["position"], pair["kind"], pair["case"], pair["checks"],
                pair["mate"]) == (1, "infeasible", 1, [], "alpha")
        expected = {"property": "pair_shapes",
                    "detail": f"adjacent double squares at position 1 of {EQUAL_17!r} "
                              "realise infeasible length ordering case 1: (5, 8, 5, 8)"}
        assert payload["findings"] == [expected]
        code, out, _ = run(capsys, "verify", "--max-len", "17", "--jobs", "1", "-f", "json",
                           "--deterministic")
        assert code == 2
        report = json.loads(out)
        assert [{"property": f["property"], "detail": f["detail"]}
                for f in report["findings"] if f["word"] == EQUAL_17] == [expected]
        at_17 = report["per_length"]["17"]
        assert at_17["pairs_equal"] == at_17["pairs_unequal"] == 0

    def test_unclassifiable_mate_is_null(self, capsys, monkeypatch):
        monkeypatch.setattr(fsdsq.pairs, "classify_mate_detail", lambda first, second: None)
        code, out, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["pairs"][0]["mate"] is None
        assert "mate_rule" not in payload["pairs"][0]
        assert payload["findings"] == [{
            "property": "adjacent_mates",
            "detail": "double squares at positions 1 and 2 (roots 5/8 and 5/8) "
                      "fit no mate category"}]

    def test_case_ten_pair_is_listed(self, capsys):
        code, out, _ = run(capsys, "analyze", CASE_10, "-f", "json")
        assert code == 2
        payload = json.loads(out)
        [pair] = payload["pairs"]
        assert (pair["position"], pair["kind"], pair["case"], pair["checks"],
                pair["mate"]) == (1, "infeasible", 10, [], "gamma")
        assert payload["findings"] == [
            {"property": "pair_shapes",
             "detail": f"adjacent double squares at position 1 of {CASE_10!r} "
                       "realise infeasible length ordering case 10: (5, 8, 8, 15)"},
            {"property": "adjacent_mates", "detail": "position 1: mate gamma"},
        ]
        code, out, _ = run(capsys, "analyze", CASE_10)
        assert code == 2
        assert "adjacent pair at 1: infeasible (case 10), mate gamma\n" in out

    def test_infeasible_pair_gets_end_order_and_mate(self, capsys, monkeypatch):
        # planted squares: roots 5/8 at 1 (ends at 16), roots 3/5 at 2 (ends at 11)
        first = find_fs_double_squares(Word.from_text(EQUAL_17))[0]
        second = dataclasses.replace(
            find_fs_double_squares(Word.from_text("abaababaab"))[0], position=2)
        monkeypatch.setattr(fsdsq.sweep, "find_fs_double_squares",
                            lambda word, roots=None: [first, second])
        code, out, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert code == 2
        payload = json.loads(out)
        assert [(p["kind"], p["case"], p["mate"]) for p in payload["pairs"]] == [
            ("infeasible", 5, "epsilon")]
        assert [f["property"] for f in payload["findings"]] == [
            "pair_shapes", "pair_end_order", "adjacent_mates"]
        assert payload["findings"][1]["detail"] == (
            "position 1: second square does not end after first")

    def test_unequal_39_is_clean(self, capsys):
        code, out, _ = run(capsys, "analyze", UNEQUAL_39, "-f", "json")
        assert code == 0
        payload = json.loads(out)
        [pair] = payload["pairs"]
        assert (pair["kind"], pair["case"], pair["mate"]) == ("unequal", 13, "delta")
        assert pair["checks"] and all(c["pass"] for c in pair["checks"])
        assert payload["findings"] == []

    def test_structure_finding_keeps_payload(self, capsys, monkeypatch):
        def planted(word, roots=None):
            raise CounterexampleError("planted")

        monkeypatch.setattr(fsdsq.sweep, "find_fs_double_squares", planted)
        code, out, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["s"] == EQUAL_17_S
        assert (payload["double_squares"], payload["pairs"]) == ([], [])
        assert payload["findings"] == [{"property": "factorization_roundtrip",
                                        "detail": "planted"}]
        code, out, _ = run(capsys, "analyze", EQUAL_17)
        assert code == 2
        assert "FINDING factorization_roundtrip: planted" in out


class TestGenerate:
    def test_run_target_one(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "run", "--target", "1")
        assert code == 0
        assert out.splitlines()[0] == "abaababaab"

    def test_unequal_short_is_w1(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "unequal",
                           "--seed", "aabaaabaabaaab", "--variant", "short")
        assert code == 0
        assert out.splitlines()[0] == W1

    def test_unequal_variant_defaults_to_short(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "unequal", "--seed", "aabaaabaabaaab")
        assert code == 0
        assert out.splitlines()[0] == W1

    def test_equal_seed(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "equal",
                           "--seed", "abaababaabaababa", "-f", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == EQUAL_17
        assert payload["T"] == 2
        assert payload["ratio"] == {"num": 2, "den": 17}

    def test_equal_seed_without_growth_exits_one(self, capsys):
        code, out, err = run(capsys, "generate", "--kind", "equal",
                             "--seed", "aabaaabaabaaab", "-f", "json")
        assert (code, out) == (1, "")
        assert err == ("error: no equal extension: appending the seed's first letter "
                       "does not lengthen the run of 2's at position 1\n")

    def test_unequal_infeasible_candidate_exits_two(self, capsys, monkeypatch):
        # the first screened candidate has a finding: the search ends on it
        monkeypatch.setattr(fsdsq.pairs, "ordering_case", lambda *lengths: 1)
        code, out, _ = run(capsys, "generate", "--kind", "unequal", "--seed", "aabaaabaabaaab",
                           "-f", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["word"] == W1
        assert payload["findings"] == [{
            "property": "pair_shapes",
            "detail": f"adjacent double squares at position 1 of {W1!r} realise "
                      "infeasible length ordering case 1: (4, 7, 16, 30)"}]
        code, out, _ = run(capsys, "generate", "--kind", "unequal", "--seed", "aabaaabaabaaab")
        assert code == 2
        assert out.splitlines()[0] == W1
        assert out.splitlines()[-1] == f"FINDING pair_shapes: {payload['findings'][0]['detail']}"

    def test_planted_mate_is_a_finding(self, capsys, monkeypatch):
        monkeypatch.setattr(fsdsq.pairs, "classify_mate_detail",
                            lambda first, second: MateClassification(MateLabel.BETA))
        code, out, _ = run(capsys, "generate", "--kind", "run", "--target", "2", "-f", "json")
        assert code == 2
        generated = json.loads(out)
        assert generated["word"] == EQUAL_17
        code, out, _ = run(capsys, "analyze", EQUAL_17, "-f", "json")
        assert code == 2
        expected = [{"property": "adjacent_mates", "detail": "position 1: mate beta"}]
        assert generated["findings"] == json.loads(out)["findings"] == expected
        code, out, _ = run(capsys, "generate", "--kind", "run", "--target", "2")
        assert code == 2
        assert "FINDING adjacent_mates: position 1: mate beta\n" in out

    @pytest.mark.parametrize("argv", [
        *(["--kind", "run", "--target", str(t)] for t in range(1, 41)),
        *(["--kind", "unequal", "--seed", seed, "--variant", variant]
          for seed in SEEDS for variant in ("short", "long")),
        ["--kind", "equal", "--seed", "abaababaabaababa"],
    ])
    def test_findings_match_analyze(self, capsys, argv):
        code, out, _ = run(capsys, "generate", *argv, "-f", "json")
        generated = json.loads(out)
        analyzed = run(capsys, "analyze", generated["word"], "-f", "json")
        assert code == analyzed[0]
        assert generated["findings"] == json.loads(analyzed[1])["findings"]

    def test_structure_error_is_a_stamped_finding(self, capsys, monkeypatch):
        def planted(word, roots=None):
            raise CounterexampleError("planted")

        monkeypatch.setattr(fsdsq.construct, "find_fs_double_squares", planted)
        code, out, err = run(capsys, "generate", "--kind", "equal", "--seed", "abaababaabaababa")
        assert (code, err) == (2, "")
        assert out == ('{"findings": [{"detail": "planted", "property": "structure"}], '
                       '"schema_version": 1}\n')

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--kind", "equal")
        assert code == 1
        assert "seed" in err

    def test_run_json_is_closed_form(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "run", "--target", "40",
                           "-f", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["n"], payload["T"], payload["steps"]) == (283, 40, [])


class TestUsageErrors:
    # exit 2 means a finding, so argparse's own exit 2 must not leak out
    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["generate", "--kind", "nope"],
        ["generate", "--kind", "run", "--target", "3", "--alphabet-size", "2"],
        ["generate", "--kind", "unequal", "--seed", "aabaaabaabaaab", "--budget", "5"],
        ["verify", "--max-len", "6", "--properties", "run_length_bound"],
        ["census", "ab", "--deterministic"],
        ["analyze", "ab", "--deterministic"],
        ["generate", "--kind", "run", "--target", "1", "--deterministic"],
        ["analyze", "ab", "-f", "tsv"],
        ["generate", "--kind", "run", "--target", "1", "-f", "tsv"],
    ])
    def test_parser_error_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("argv,option", [
        (["--kind", "run", "--target", "2", "--seed", "zz"], "seed"),
        (["--kind", "run", "--target", "2", "--variant", "long"], "variant"),
        (["--kind", "equal", "--seed", "abaababaabaababa", "--target", "9"], "target"),
        (["--kind", "equal", "--seed", "abaababaabaababa", "--variant", "short"], "variant"),
        (["--kind", "unequal", "--seed", "aabaaabaabaaab", "--target", "9"], "target"),
    ])
    def test_option_of_another_kind_exits_one(self, capsys, argv, option):
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: --{option} does not apply to --kind {argv[1]}\n"

    @pytest.mark.parametrize("kind,option", [("run", "target"), ("unequal", "seed")])
    def test_missing_option_of_the_kind_exits_one(self, capsys, kind, option):
        code, out, err = run(capsys, "generate", "--kind", kind)
        assert (code, out) == (1, "")
        assert err == f"error: --{option} is required for --kind {kind}\n"

    def test_reused_parser_matches_fresh_parsers(self, capsys):
        # the parser is built once per process; a usage error must leave
        # nothing behind for the calls after it
        sequence = [
            ["generate", "--kind", "nope"],
            ["census", EQUAL_17, "-f", "json"],
            ["analyze", EQUAL_17],
            ["generate", "--kind", "run", "--target", "2", "-f", "json"],
            ["verify", "--max-len", "6", "--deterministic"],
            ["census", "ab"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [call(argv) for argv in sequence]
        assert _build_parser() is _build_parser()
        fresh = []
        for argv in sequence:
            _build_parser.cache_clear()
            fresh.append(call(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0, 0, 0, 0]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        assert "--kind unequal" in capsys.readouterr().out


class TestVerify:
    def test_small_sweep_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "10", "-f", "json",
                           "--deterministic")
        assert code == 0
        payload = json.loads(out)
        assert payload["findings"] == []
        assert payload["total_words"] == 1023
        assert "elapsed_seconds" not in payload

    def test_timing_present_without_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "6", "-f", "json")
        assert code == 0
        assert "elapsed_seconds" in json.loads(out)
        code, out, _ = run(capsys, "verify", "--max-len", "6")
        assert code == 0
        assert any(line.startswith("elapsed: ") for line in out.splitlines())
        _, out, _ = run(capsys, "verify", "--max-len", "6", "--deterministic")
        assert "elapsed" not in out

    # sha256 of ``verify --deterministic --format json``: a change that
    # alters any byte of the report changes these.
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("alphabet_size,max_len,digest", [
        ("2", "14", "f94fba626c22c1d537c34471a74fe9f5e664d95ca93ae363e7b4a62885cbf285"),
        ("3", "10", "5262bee081b656e38230e8a8387f474bd35158b6ed88566e9e710a1854c09613"),
    ])
    def test_deterministic_json_is_pinned(self, capsys, alphabet_size, max_len, digest,
                                          jobs):
        code, out, _ = run(capsys, "verify", "--alphabet-size", alphabet_size,
                           "--max-len", max_len, "--jobs", jobs, "--deterministic",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic_output_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "--max-len", "9", "-f", "json",
                         "--deterministic")
        _, out2, _ = run(capsys, "verify", "--max-len", "9", "-f", "json",
                         "--deterministic", "--jobs", "2")
        assert out1 == out2

    def test_ternary_report_independent_of_jobs_and_resume(self, capsys, tmp_path,
                                                            crash_after):
        argv = ("verify", "--alphabet-size", "3", "--max-len", "10", "-f", "json",
                "--deterministic")
        code, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0 and json.loads(serial)["total_words"] == 14767
        assert run(capsys, *argv, "--jobs", "2")[1] == serial
        ck = tmp_path / "sweep.ck"
        with crash_after(5):
            main([*argv, "--checkpoint", str(ck)])
        assert len(ck.read_text().splitlines()) == 1 + 5
        capsys.readouterr()
        assert run(capsys, *argv, "--jobs", "2", "--checkpoint", str(ck)) == (0, serial, "")
        assert len(ck.read_text().splitlines()) == 1 + 42

    def test_tsv_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "8", "-f", "tsv")
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].startswith("n\twords\t")
        assert len(rows) == 9

    def test_ceiling_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--max-len", "19")
        assert code == 1
        assert "ceiling" in err

    def test_ceiling_override(self, capsys):
        code, _, err = run(capsys, "verify", "--alphabet-size", "1", "--max-len", "40")
        assert code == 1 and "ceiling" in err
        code, out, _ = run(capsys, "verify", "--alphabet-size", "1", "--max-len", "40",
                           "--override-ceiling", "-f", "json", "--deterministic")
        assert code == 0
        assert json.loads(out)["total_words"] == 40
