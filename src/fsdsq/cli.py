"""Command-line front end: census, analyze, generate, verify.

Structured results (including findings) go to stdout; diagnostics go to
stderr.  Exit codes: 0 clean, 1 usage, I/O or out-of-memory error, 2
mathematical finding.  ``census`` and ``analyze`` read ``@path`` as a file
of words, one per line, for words longer than one command-line argument
may be.  ``analyze``, ``generate`` and ``verify`` decide findings by the same
check, ``pairs.check_word``, so a word gets the same property names and
details from each.  JSON output carries a top-level ``schema_version`` and is
byte-stable for identical invocations; only ``verify`` reports a timing
field, the time it measures around the sweep, which its ``--deterministic``
flag omits.  ``tsv`` is a format of ``census`` and ``verify`` only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .census import CensusReport, render_census_tsv, s_sequence
from .construct import RunReport, build_run, extend_equal_run, extend_unequal
from .errors import CounterexampleError
from .pairs import check_word
from .sweep import MAX_SWEEP_WORDS, WORDS_PER_WORKER, SweepReport, exhaustive_verify
from .words import Word

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FINDING = 2


def _print_json(payload: dict) -> None:
    print(json.dumps({**payload, "schema_version": SCHEMA_VERSION}, sort_keys=True))


def _read_words_arg(arg: str) -> list[Word]:
    """``@path``: the words of a file, one per line; anything else is a word
    given literally, even when a file of that name exists.  A line that is
    not ASCII or not a word is refused with the file name and line number."""
    if arg.startswith("@"):
        path = arg[1:]
        with open(path, "rb") as fh:
            data = fh.read()
        words = []
        for number, raw in enumerate(data.splitlines(), 1):
            try:
                line = raw.decode("ascii").strip()
                if line:
                    words.append(Word.from_text(line))
            except ValueError as exc:  # UnicodeDecodeError is a ValueError
                raise ValueError(f"{path} line {number}: {exc}") from None
        if not words:
            raise ValueError(f"no words found in {path}")
        return words
    return [Word.from_text(arg)]


# ------------------------------------------------------------------- census

def _census_plain(report: CensusReport) -> str:
    text = report.word.text
    lines = [f"word: {text}", f"n: {len(text)}"]
    width = 30
    for base in range(0, len(text), width):
        chunk = range(base, min(base + width, len(text)))
        lines.append("  i " + " ".join(f"{i + 1:2d}" for i in chunk))
        lines.append("  w " + " ".join(f"{text[i]:>2s}" for i in chunk))
        lines.append("  s " + " ".join(f"{report.s[i]:2d}" for i in chunk))
    lines.append(f"distinct squares: {report.distinct_square_count}")
    start, length = report.longest_run
    lines.append(f"longest run of 2s: start {start}, length {length}")
    return "\n".join(lines)


def cmd_census(args: argparse.Namespace) -> int:
    words = _read_words_arg(args.word)
    for word in words:
        report = s_sequence(word)
        if args.format == "tsv":
            sys.stdout.write(render_census_tsv(report))
            print(f"# distinct_squares={report.distinct_square_count} "
                  f"longest_run={report.longest_run[0]},{report.longest_run[1]}",
                  file=sys.stderr)
        elif args.format == "json":
            _print_json(report.to_json_dict())
        else:
            print(_census_plain(report))
    return EXIT_OK


# ------------------------------------------------------------------ analyze

def _analysis_payload(word: Word) -> dict:
    report = s_sequence(word)
    checked = check_word(word, report.doubles, report.distinct_square_count)
    return {
        "word": word.text,
        "n": len(word),
        "s": list(report.s),
        "double_squares": [sq.to_json_dict() for sq in checked.squares],
        "pairs": [pair.to_json_dict() for pair in checked.pairs],
        "findings": [{"property": prop, "detail": detail}
                     for prop, detail in checked.findings],
    }


def _analysis_plain(payload: dict) -> None:
    print(f"word: {payload['word']}")
    if not payload["double_squares"]:
        print("no FS-double squares")
    for sq in payload["double_squares"]:
        print(f"FS-double square at {sq['position']}: |sq|={sq['sq_len']} "
              f"|SQ|={sq['SQ_len']} x1={sq['x1']} x2={sq['x2']} "
              f"p1={sq['p1']} p2={sq['p2']}")
    for pair in payload["pairs"]:
        checks = " ".join(f"{c['name']}={'ok' if c['pass'] else 'FAIL'}"
                          for c in pair["checks"])
        rule = f" ({pair['mate_rule']})" if "mate_rule" in pair else ""
        print(f"adjacent pair at {pair['position']}: {pair['kind']} "
              f"(case {pair['case']}), mate {pair['mate']}{rule}; {checks}".rstrip("; "))
    for finding in payload["findings"]:
        print(f"FINDING {finding['property']}: {finding['detail']}")


def cmd_analyze(args: argparse.Namespace) -> int:
    code = EXIT_OK
    for word in _read_words_arg(args.word):
        payload = _analysis_payload(word)
        if args.format == "json":
            _print_json(payload)
        else:
            _analysis_plain(payload)
        if payload["findings"]:
            code = EXIT_FINDING
    return code


# ----------------------------------------------------------------- generate

def _run_report_out(report: RunReport, fmt: str) -> int:
    if fmt == "json":
        _print_json(report.to_json_dict())
    else:
        print(report.word.text)
        print(f"n: {report.n}")
        print(f"T: {report.T}")
        print(f"ratio: {report.ratio.numerator}/{report.ratio.denominator}")
        for step in report.steps:
            print(f"step {step.kind}: +{len(step.letters)} letters")
        for prop, detail in report.findings:
            print(f"FINDING {prop}: {detail}")
    return EXIT_FINDING if report.findings else EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    # The first option of a kind is required.  An option of another kind is
    # refused, not ignored: a mistyped --kind would answer another question.
    used = {"run": ("target",), "equal": ("seed",), "unequal": ("seed", "variant")}[args.kind]
    if getattr(args, used[0]) is None:
        raise ValueError(f"--{used[0]} is required for --kind {args.kind}")
    for name in ("seed", "target", "variant"):
        if name not in used and getattr(args, name) is not None:
            raise ValueError(f"--{name} does not apply to --kind {args.kind}")
    if args.kind == "run":
        report = build_run(args.target)
    elif args.kind == "equal":
        report = extend_equal_run(Word.from_text(args.seed))
    else:
        report = extend_unequal(Word.from_text(args.seed), args.variant or "short")
    return _run_report_out(report, args.format)


# ------------------------------------------------------------------- verify

def _verify_out(report: SweepReport, fmt: str, elapsed: float | None) -> int:
    """``elapsed`` is None under ``--deterministic``."""
    if fmt == "json":
        payload = report.to_json_dict()
        if elapsed is not None:
            payload["elapsed_seconds"] = elapsed
        _print_json(payload)
    elif fmt == "tsv":
        print("n\twords\tmax_distinct_squares\tmax_run\tpairs_equal"
              "\tpairs_unequal\tdouble_square_positions")
        for n, st in sorted(report.per_length.items()):
            print(f"{n}\t{st.words}\t{st.max_distinct_squares}\t{st.max_run}"
                  f"\t{st.pairs_equal}\t{st.pairs_unequal}\t{st.double_square_positions}")
        for f in report.findings:
            print(f"finding\t{f.property}\t{f.word}\t{f.detail}")
    else:
        print(f"alphabet size: {report.alphabet_size}")
        print(f"max length: {report.max_len}")
        print(f"words checked: {report.total_words}")
        if elapsed is not None:
            print(f"elapsed: {elapsed:.2f}s")
        for n, st in sorted(report.per_length.items()):
            print(f"  n={n}: words={st.words} max_distinct={st.max_distinct_squares} "
                  f"max_run={st.max_run} pairs={st.pairs_equal}+{st.pairs_unequal}")
        print(f"findings: {len(report.findings)}")
        for f in report.findings:
            print(f"FINDING {f.property} {f.word}: {f.detail}")
    return EXIT_FINDING if report.findings else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    start = time.monotonic()
    report = exhaustive_verify(args.alphabet_size, args.max_len, checkpoint_path=args.checkpoint,
                               parallelism=args.jobs, allow_over_ceiling=args.override_ceiling)
    elapsed = None if args.deterministic else time.monotonic() - start
    return _verify_out(report, args.format, elapsed)


# --------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means a finding."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fsdsq",
        description="Rightmost distinct squares, FS-double squares and runs of 2's")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="s_i sequence of a word (or file of words)")
    p.add_argument("word", help="word text, or @path for a file with one word per line")
    p.add_argument("-f", "--format", choices=("plain", "tsv", "json"), default="plain")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("analyze", help="FS-double squares, adjacent pairs, mates")
    p.add_argument("word", help="word text, or @path for a file with one word per line")
    p.add_argument("-f", "--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="construct words with long runs of 2's")
    p.add_argument("--kind", choices=("equal", "unequal", "run"), required=True)
    p.add_argument("--seed", help="seed word for equal/unequal extension")
    p.add_argument("--target", type=int, help="target run length for --kind run")
    p.add_argument("--variant", choices=("short", "long"),
                   help="middle of the new block for --kind unequal (default short)")
    p.add_argument("-f", "--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="exhaustive property sweep")
    p.add_argument("--alphabet-size", type=int, default=2)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="upper bound on worker processes: a sweep gets at most one per "
                        f"usable CPU and per {WORDS_PER_WORKER:,} words still to sweep, "
                        "and one worker runs in-process")
    p.add_argument("--checkpoint", help="checkpoint file for resumable sweeps")
    p.add_argument("--override-ceiling", action="store_true",
                   help=f"run even a sweep of more than {MAX_SWEEP_WORDS:,} canonical "
                        "words, which is refused without it")
    p.add_argument("--deterministic", action="store_true",
                   help="omit the elapsed time for byte-stable output")
    p.add_argument("-f", "--format", choices=("plain", "tsv", "json"), default="plain")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CounterexampleError as exc:
        _print_json({"findings": [{"property": "structure", "detail": str(exc)}]})
        return EXIT_FINDING
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory for this input", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
