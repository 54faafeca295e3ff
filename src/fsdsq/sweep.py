"""Exhaustive verification sweeps over canonically enumerated words.

Words are enumerated up to alphabet renaming: the first letter is always
'a' and each new letter is the smallest unused one (restricted growth).
Every property checked here is invariant under renaming, so one canonical
word stands for its whole isomorphism class.

Work is split into blocks: one block per canonical prefix of a fixed
length, plus one block for all shorter words.  Blocks share nothing, so
they can run on worker processes; partial aggregates are merged in planned
block order, which makes the final report independent of worker count,
completion order and checkpoint resume points.  The checkpoint file is
line-oriented text, rewritten atomically (temp file + rename) after each
completed block.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool

from .census import _census_scan
from .double_squares import MateLabel, classify_mate_detail, find_fs_double_squares
from .errors import (CostCeilingError, CounterexampleError, ForbiddenPairError,
                     SweepInterrupted, UnclassifiablePairError)
from .pairs import PairKind, find_double_square_pairs
from .words import Word

DEFAULT_COST_CEILING = 36
COST_CEILING_ENV = "FSDSQ_COST_CEILING"
CHECKPOINT_MAGIC = "fsdsq-sweep-checkpoint"
CHECKPOINT_VERSION = 1

ALL_PROPERTIES = (
    "census_max_two",
    "distinct_below_twice_length",
    "factorization_roundtrip",
    "pair_shapes",
    "equal_pair_checks",
    "unequal_pair_checks",
    "adjacent_mates",
    "pair_end_order",
    "run_length_bound",
)


@dataclass(frozen=True)
class SweepConfig:
    alphabet_size: int
    max_len: int
    properties: tuple[str, ...] = ALL_PROPERTIES
    checkpoint_path: str | None = None
    parallelism: int = 1
    block_prefix_len: int = 7
    allow_over_ceiling: bool = False
    # Stop after this many newly processed blocks and raise SweepInterrupted;
    # used to drill checkpoint/resume behaviour.
    stop_after_blocks: int | None = None


@dataclass(frozen=True)
class LengthStats:
    words: int = 0
    max_distinct_squares: int = 0
    max_run: int = 0
    run_hist: dict = field(default_factory=dict)
    pairs_equal: int = 0
    pairs_unequal: int = 0
    double_square_positions: int = 0


@dataclass(frozen=True, slots=True)
class Finding:
    property: str
    word: str
    detail: str


@dataclass(frozen=True)
class SweepReport:
    alphabet_size: int
    max_len: int
    properties: tuple[str, ...]
    per_length: dict
    findings: tuple[Finding, ...]
    elapsed_seconds: float

    @property
    def min_length_per_run(self) -> dict:
        out: dict[int, int] = {}
        for n in sorted(self.per_length):
            for t, count in self.per_length[n].run_hist.items():
                if t >= 1 and count and t not in out:
                    out[t] = n
        return out

    @property
    def total_words(self) -> int:
        return sum(st.words for st in self.per_length.values())

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema_version": 1,
            "alphabet_size": self.alphabet_size,
            "max_len": self.max_len,
            "properties": list(self.properties),
            "total_words": self.total_words,
            "per_length": {
                str(n): {
                    "words": st.words,
                    "max_distinct_squares": st.max_distinct_squares,
                    "max_run": st.max_run,
                    "run_hist": {str(t): c for t, c in sorted(st.run_hist.items())},
                    "pairs_equal": st.pairs_equal,
                    "pairs_unequal": st.pairs_unequal,
                    "double_square_positions": st.double_square_positions,
                }
                for n, st in sorted(self.per_length.items())
            },
            "min_length_per_run": {str(t): n for t, n in sorted(self.min_length_per_run.items())},
            "findings": [
                {"property": f.property, "word": f.word, "detail": f.detail}
                for f in self.findings
            ],
        }
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


def cost_ceiling() -> int:
    raw = os.environ.get(COST_CEILING_ENV)
    if raw is None:
        return DEFAULT_COST_CEILING
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{COST_CEILING_ENV} must be an integer, got {raw!r}") from exc


def _check_ceiling(alphabet_size: int, max_len: int, allow_over: bool) -> None:
    ceiling = cost_ceiling()
    if alphabet_size * max_len > ceiling and not allow_over:
        raise CostCeilingError(
            f"alphabet_size*max_len = {alphabet_size * max_len} exceeds the cost "
            f"ceiling {ceiling}; pass the override flag (or raise {COST_CEILING_ENV}) "
            "to run anyway")


def iter_canonical_words(alphabet_size: int, length: int):
    """All canonical words of exactly ``length``, lexicographic order."""
    if length < 1:
        return
    buf = bytearray(length)
    top = alphabet_size - 1

    def rec(depth: int, used: int):
        if depth == length:
            yield bytes(buf)
            return
        for c in range(min(used + 1, top) + 1):
            buf[depth] = c
            yield from rec(depth + 1, used if c <= used else c)

    yield from rec(0, -1)


# ---------------------------------------------------------------- inspection

def _inspect_word(codes: bytes, props: frozenset, lengths: dict, findings: list) -> None:
    s, roots = _census_scan(codes)
    n = len(codes)
    run = best_run = 0
    for v in s:
        run = run + 1 if v == 2 else 0
        if run > best_run:
            best_run = run
    distinct = sum(s)
    st = lengths.get(n)
    if st is None:
        st = lengths[n] = [0, 0, 0, {}, 0, 0, 0]
    st[0] += 1
    if distinct > st[1]:
        st[1] = distinct
    if best_run > st[2]:
        st[2] = best_run
    st[3][best_run] = st[3].get(best_run, 0) + 1

    word_text = None
    if "census_max_two" in props and any(v > 2 for v in s):
        word_text = Word(codes).text
        findings.append(("census_max_two", word_text, f"max s_i = {max(s)}"))
    if "distinct_below_twice_length" in props and distinct >= 2 * n:
        word_text = word_text or Word(codes).text
        findings.append(("distinct_below_twice_length", word_text,
                         f"{distinct} distinct squares at length {n}"))
    if "run_length_bound" in props and 7 * best_run >= n:
        word_text = word_text or Word(codes).text
        findings.append(("run_length_bound", word_text, f"7*{best_run} >= {n}"))

    doubles = sum(1 for ps in roots.values() if len(ps) >= 2)
    st[6] += doubles
    if not doubles:
        return
    # Structure work is rare (census-2 positions exist) and cheap, so it runs
    # whenever present; findings it raises are never suppressed even when the
    # matching property was not selected.
    word = Word(codes)
    word_text = word.text
    try:
        squares = find_fs_double_squares(word, roots)
    except CounterexampleError as exc:
        findings.append(("factorization_roundtrip", word_text, str(exc)))
        return
    try:
        pairs = find_double_square_pairs(word, squares)
    except ForbiddenPairError as exc:
        findings.append(("pair_shapes", word_text, str(exc)))
        return
    for pair in pairs:
        if pair.kind is PairKind.EQUAL:
            st[4] += 1
            if "equal_pair_checks" in props and not pair.all_checks_pass:
                failed = [c.name for c in pair.checks if not c.passed]
                findings.append(("equal_pair_checks", word_text,
                                 f"position {pair.position}: failed {failed}"))
        else:
            st[5] += 1
            if "unequal_pair_checks" in props and not pair.all_checks_pass:
                failed = [c.name for c in pair.checks if not c.passed]
                findings.append(("unequal_pair_checks", word_text,
                                 f"position {pair.position}: failed {failed}"))
        if "pair_end_order" in props:
            if not any(c.name == "second_ends_after_first" and c.passed for c in pair.checks):
                findings.append(("pair_end_order", word_text,
                                 f"position {pair.position}: second square does not end after first"))
        if "adjacent_mates" in props:
            try:
                label = classify_mate_detail(pair.first, pair.second).label
            except UnclassifiablePairError as exc:
                findings.append(("adjacent_mates", word_text, str(exc)))
            else:
                if label not in (MateLabel.ALPHA, MateLabel.DELTA):
                    findings.append(("adjacent_mates", word_text,
                                     f"position {pair.position}: mate {label.value}"))


# ------------------------------------------------------------------- blocks

def _plan_blocks(alphabet_size: int, max_len: int, block_prefix_len: int) -> list[str]:
    b = min(block_prefix_len, max_len)
    blocks = [""]
    blocks.extend(Word(codes).text for codes in iter_canonical_words(alphabet_size, b))
    return blocks


def _process_block(args: tuple) -> tuple[str, dict]:
    alphabet_size, max_len, block_prefix_len, block_id, props_tuple = args
    props = frozenset(props_tuple)
    b = min(block_prefix_len, max_len)
    lengths: dict[int, list] = {}
    findings: list[tuple[str, str, str]] = []
    top = alphabet_size - 1

    if block_id == "":
        for n in range(1, b):
            for codes in iter_canonical_words(alphabet_size, n):
                _inspect_word(codes, props, lengths, findings)
    else:
        prefix = Word.from_text(block_id).codes
        buf = bytearray(max_len)
        buf[:len(prefix)] = prefix

        def rec(depth: int, used: int):
            _inspect_word(bytes(buf[:depth]), props, lengths, findings)
            if depth == max_len:
                return
            for c in range(min(used + 1, top) + 1):
                buf[depth] = c
                rec(depth + 1, used if c <= used else c)

        rec(len(prefix), max(prefix))
    partial = {
        "lengths": {str(n): st for n, st in lengths.items()},
        "findings": findings,
    }
    return block_id, partial


# --------------------------------------------------------------- checkpoint

def _checkpoint_header(config: SweepConfig) -> str:
    return "\t".join([
        CHECKPOINT_MAGIC,
        f"version={CHECKPOINT_VERSION}",
        f"alphabet_size={config.alphabet_size}",
        f"max_len={config.max_len}",
        f"block_prefix_len={config.block_prefix_len}",
        "properties=" + ",".join(config.properties),
    ])


def _save_checkpoint(path: str, config: SweepConfig, done: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(_checkpoint_header(config) + "\n")
        for block_id in sorted(done):
            rendered = block_id if block_id else "-"
            fh.write(f"block\t{rendered}\t{json.dumps(done[block_id], sort_keys=True)}\n")
    os.replace(tmp, path)


def _load_checkpoint(path: str, config: SweepConfig) -> dict:
    done: dict[str, dict] = {}
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != _checkpoint_header(config):
            raise ValueError(
                f"checkpoint {path} does not match this sweep configuration")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            kind, rendered, payload = line.split("\t", 2)
            if kind != "block":
                raise ValueError(f"unrecognised checkpoint line: {line!r}")
            block_id = "" if rendered == "-" else rendered
            done[block_id] = json.loads(payload)
    return done


# -------------------------------------------------------------------- sweep

def exhaustive_verify(config: SweepConfig) -> SweepReport:
    """Census and property-check every canonical word up to ``max_len``."""
    if config.alphabet_size < 1 or config.max_len < 1:
        raise ValueError("alphabet_size and max_len must be at least 1")
    if config.block_prefix_len < 1:
        raise ValueError("block_prefix_len must be at least 1")
    unknown = set(config.properties) - set(ALL_PROPERTIES)
    if unknown:
        raise ValueError(f"unknown properties: {sorted(unknown)}")
    _check_ceiling(config.alphabet_size, config.max_len, config.allow_over_ceiling)

    start = time.monotonic()
    blocks = _plan_blocks(config.alphabet_size, config.max_len, config.block_prefix_len)
    done: dict[str, dict] = {}
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        done = _load_checkpoint(config.checkpoint_path, config)
        unknown_blocks = set(done) - set(blocks)
        if unknown_blocks:
            raise ValueError(f"checkpoint contains unknown blocks: {sorted(unknown_blocks)[:3]}")
    pending = [b for b in blocks if b not in done]
    args = [(config.alphabet_size, config.max_len, config.block_prefix_len,
             b, tuple(config.properties)) for b in pending]

    processed = 0

    def record(block_id: str, partial: dict) -> None:
        nonlocal processed
        done[block_id] = partial
        processed += 1
        if config.checkpoint_path:
            _save_checkpoint(config.checkpoint_path, config, done)

    budget = config.stop_after_blocks
    if config.parallelism > 1 and len(args) > 1:
        take = args if budget is None else args[:budget]
        with Pool(config.parallelism) as pool:
            for block_id, partial in pool.imap_unordered(_process_block, take):
                record(block_id, partial)
    else:
        for arg in args:
            if budget is not None and processed >= budget:
                break
            block_id, partial = _process_block(arg)
            record(block_id, partial)

    if len(done) < len(blocks):
        raise SweepInterrupted(config.checkpoint_path or "<none>", processed)

    return _fold(blocks, done, config, time.monotonic() - start)


def _fold(blocks: list[str], done: dict, config: SweepConfig,
          elapsed: float) -> SweepReport:
    lengths: dict[int, list] = {}
    findings: list[Finding] = []
    for block_id in blocks:
        partial = done[block_id]
        for n_str, st in partial["lengths"].items():
            n = int(n_str)
            acc = lengths.get(n)
            if acc is None:
                acc = lengths[n] = [0, 0, 0, {}, 0, 0, 0]
            acc[0] += st[0]
            acc[1] = max(acc[1], st[1])
            acc[2] = max(acc[2], st[2])
            for t, c in st[3].items():
                t = int(t)
                acc[3][t] = acc[3].get(t, 0) + c
            acc[4] += st[4]
            acc[5] += st[5]
            acc[6] += st[6]
        for prop, word, detail in partial["findings"]:
            findings.append(Finding(prop, word, detail))
    per_length = {
        n: LengthStats(words=a[0], max_distinct_squares=a[1], max_run=a[2],
                       run_hist=dict(sorted(a[3].items())), pairs_equal=a[4],
                       pairs_unequal=a[5], double_square_positions=a[6])
        for n, a in sorted(lengths.items())
    }
    return SweepReport(
        alphabet_size=config.alphabet_size,
        max_len=config.max_len,
        properties=tuple(config.properties),
        per_length=per_length,
        findings=tuple(findings),
        elapsed_seconds=elapsed,
    )


# ------------------------------------------------------------------ queries

def minimal_pair_length(alphabet_size: int, cap: int, *,
                        allow_over_ceiling: bool = False) -> tuple[int | None, Word | None]:
    """Smallest n <= cap at which two adjacent positions both carry census
    value 2, with the lexicographically smallest canonical witness."""
    if alphabet_size < 1 or cap < 1:
        raise ValueError("alphabet_size and cap must be at least 1")
    _check_ceiling(alphabet_size, cap, allow_over_ceiling)
    for n in range(1, cap + 1):
        for codes in iter_canonical_words(alphabet_size, n):
            s, _ = _census_scan(codes)
            if any(s[i] == 2 and s[i + 1] == 2 for i in range(n - 1)):
                return n, Word(codes)
    return None, None


@dataclass(frozen=True)
class RatioTable:
    rows: tuple[tuple[int, int, Fraction], ...]
    findings: tuple[Finding, ...]


def extremal_ratio(alphabet_size: int, max_len: int, *, parallelism: int = 1,
                   allow_over_ceiling: bool = False) -> RatioTable:
    """Per length: the maximum run of 2's over all words of that length and
    the exact best ratio; bound violations are listed as findings."""
    config = SweepConfig(alphabet_size=alphabet_size, max_len=max_len,
                         properties=("run_length_bound",),
                         parallelism=parallelism,
                         allow_over_ceiling=allow_over_ceiling)
    report = exhaustive_verify(config)
    rows = tuple(
        (n, st.max_run, Fraction(st.max_run, n))
        for n, st in sorted(report.per_length.items())
    )
    return RatioTable(rows=rows, findings=report.findings)
