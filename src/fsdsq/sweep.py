"""Exhaustive verification sweeps over canonically enumerated words.

Words are enumerated up to alphabet renaming, in canonical form read from
the right: the last letter is 'a' and, reading leftwards, each new letter
is the smallest unused one.  Every property checked here is invariant
under renaming, so one canonical word stands for its whole isomorphism
class.  Findings and witnesses are reported in left-to-right canonical
form (first letter 'a').

Each word is built from its parent by prepending one letter.  That leaves
every old s_i and m_i exact: both depend only on letters at i and to its
right.  So a word costs one call of the census step of ``census.py`` for
its new first position.  The rest is carried down the depth-first search
in O(1) per word: the distinct-square count and the rightmost roots of
every position with s_i >= 2, off which the runs of 2's, the largest s_i
and the structure analysis are read without rescanning.

``check_word`` is the one definition of a word's findings: it checks every
property of ``ALL_PROPERTIES`` and is shared with ``fsdsq analyze`` and the
constructions of ``fsdsq generate``.  The sweep calls it only on words with
a position where s_i >= 2, since no other word can raise a finding.

One count measures what a sweep costs: its number of canonical words of
each length, from ``_length_counts``.  It alone decides whether a sweep is
refused (more than ``MAX_SWEEP_WORDS`` words, summed by length until past
that, unless overridden), how its blocks are planned, so b is found without
a walk past it, and how many workers it gets.  The words still to sweep are
the total less the words that the blocks of a loaded checkpoint record:
the blocks partition the words, and a block's stats count each of its
words once.

Work is split into blocks: one block per canonical suffix of length b,
plus one block for all shorter words.  b is the longest length up to
``BLOCK_SUFFIX_LEN`` (and ``max_len``) with at most 64 canonical suffixes,
the binary count at ``BLOCK_SUFFIX_LEN``; so binary keeps suffixes of 7 and
ternary and 4-ary get suffixes of 5, and no alphabet gets more than 65
blocks.  Blocks share nothing, so they can run on worker processes, which
take them in chunks to save per-task round trips.  The parallelism asked
for is an upper bound: at most one worker per usable CPU and per
``WORDS_PER_WORKER`` words of the blocks still to run, and one worker runs
them in-process.
Partial aggregates merge by sums and maxima, and findings are sorted by
(length, word), so the report does not depend on worker count, completion
order or checkpoint resume points.  The checkpoint file is line-oriented
text: a header that records b, then one ``block`` line appended and flushed
per completed block.  A resume drops a trailing line that a crash cut short
and recomputes that block.  A checkpoint of another sweep or block plan, or
one naming a block outside the plan, is refused before it is written.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from multiprocessing import Pool

from .census import _census_step, runs_of_two
from .double_squares import FsDoubleSquare, MateLabel, find_fs_double_squares
from .errors import CostCeilingError, CounterexampleError
from .pairs import PairClassification, PairKind, find_double_square_pairs
from .words import Word

# A sweep of more canonical words than this is refused unless overridden.
# It is the binary count to length 18.  A word costs 2 to 3 us of one CPU on
# any alphabet from 2 to 26 letters, so every sweep under it takes less than
# a second (the measured table is in CHANGES.md).
MAX_SWEEP_WORDS = 262_143
# The longest block suffix; ``_plan_blocks`` picks the one used, which the
# checkpoint header records as ``block_prefix_len``.
BLOCK_SUFFIX_LEN = 7
# A sweep gets at most one worker per this many words still to sweep.  On
# fewer than twice as many, a pool's start-up and result pickling cost more
# than a second CPU saves (the measured table is in CHANGES.md).
WORDS_PER_WORKER = 10_000
CHECKPOINT_MAGIC = "fsdsq-sweep-checkpoint"
CHECKPOINT_VERSION = 2
WALK_STACK_MARGIN = 100  # frames kept for ``_walk``'s callers and its visitor

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


@dataclass(slots=True)
class LengthStats:
    """Aggregates over the words of one length; ``run_hist`` counts them by longest run
    of 2's.  The sweep updates it word by word and ``merge`` adds another block's."""

    max_distinct_squares: int = 0
    run_hist: dict = field(default_factory=dict)
    pairs_equal: int = 0
    pairs_unequal: int = 0
    double_square_positions: int = 0

    @property
    def words(self) -> int:
        return sum(self.run_hist.values())

    @property
    def max_run(self) -> int:
        return max(self.run_hist, default=0)

    def merge(self, other: "LengthStats") -> None:
        self.max_distinct_squares = max(self.max_distinct_squares, other.max_distinct_squares)
        for t, c in other.run_hist.items():
            self.run_hist[t] = self.run_hist.get(t, 0) + c
        self.pairs_equal += other.pairs_equal
        self.pairs_unequal += other.pairs_unequal
        self.double_square_positions += other.double_square_positions

    def to_json_dict(self) -> dict:
        return {
            "words": self.words,
            "max_distinct_squares": self.max_distinct_squares,
            "max_run": self.max_run,
            "run_hist": {str(t): c for t, c in sorted(self.run_hist.items())},
            "pairs_equal": self.pairs_equal,
            "pairs_unequal": self.pairs_unequal,
            "double_square_positions": self.double_square_positions,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LengthStats":
        return cls(max_distinct_squares=d["max_distinct_squares"],
                   run_hist={int(t): c for t, c in d["run_hist"].items()},
                   pairs_equal=d["pairs_equal"], pairs_unequal=d["pairs_unequal"],
                   double_square_positions=d["double_square_positions"])


@dataclass(frozen=True, slots=True)
class Finding:
    property: str
    word: str
    detail: str


@dataclass(frozen=True)
class SweepReport:
    alphabet_size: int
    max_len: int
    per_length: dict
    findings: tuple[Finding, ...]

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

    def to_json_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet_size,
            "max_len": self.max_len,
            "properties": list(ALL_PROPERTIES),
            "total_words": self.total_words,
            "per_length": {str(n): st.to_json_dict()
                           for n, st in sorted(self.per_length.items())},
            "min_length_per_run": {str(t): n for t, n in sorted(self.min_length_per_run.items())},
            "findings": [
                {"property": f.property, "word": f.word, "detail": f.detail}
                for f in self.findings
            ],
        }


def _left_canonical(codes: bytes | bytearray) -> bytes:
    """Rename letters in order of first occurrence from the left."""
    names: dict[int, int] = {}
    return bytes(names.setdefault(c, len(names)) for c in codes)


# -------------------------------------------------------------- enumeration

def _walk(alphabet_size: int, max_len: int, suffix: bytes, visit) -> None:
    """Depth-first walk, by prepending letters, over the right-canonical
    words of length at most ``max_len`` that end in the right-canonical
    ``suffix``; the walk starts at ``suffix`` itself (at "a" when it is
    empty).

    The current word is ``buf[i:]`` of a buffer of length ``max_len``, so a
    position keeps its index as letters are prepended.  Each word is handed
    to ``visit(buf, i, distinct, doubles)``: its distinct-square count and
    ``doubles``, which maps every start with at least two rightmost roots to
    those roots (ascending lengths), and gives the runs of 2's and the
    largest s_i.  The walk descends below a word only if ``visit`` returns
    true.  It recurses once per letter.
    """
    L = max_len
    buf = bytearray(L)
    first = L - len(suffix)  # an empty suffix starts at "a": buf[L - 1] is already 0
    buf[first:] = suffix
    step = _census_step(buf)
    top = alphabet_size - 1
    doubles: dict[int, list[int]] = {}

    # From the state of buf[i+1:] (m_{i+1}, a later-match start, distinct count) to
    # that of buf[i:].  The letters of ``suffix`` are in ``buf`` and pass unvisited.
    def rec(i, used, m, j, distinct):
        m, j, ps = step(i, m, j)
        if len(ps) >= 2:
            doubles[i] = ps
        distinct += len(ps)
        if i > first:
            c = buf[i - 1]
            rec(i - 1, c if c > used else used, m, j, distinct)
        elif visit(buf, i, distinct, doubles) and i:
            for c in range(min(used + 1, top) + 1):
                buf[i - 1] = c
                rec(i - 1, c if c > used else used, m, j, distinct)
        doubles.pop(i, None)

    rec(L - 1, buf[L - 1], -1, L, 0)  # from the empty word at L


# ------------------------------------------------------------------- counts

def _length_counts(alphabet_size: int, max_len: int):
    """Yield the number of right-canonical words of each length 1, ...,
    ``max_len``.  Let g(k, u) be the number of ways to prepend k letters to
    a right-canonical word that uses u distinct letters and keep it
    right-canonical.  The letter next to the word is one of its u letters
    or, while u < a, the next new one, so g(0, u) = 1 and g(k, u) =
    u g(k-1, u) + [u < a] g(k-1, u+1).  A word of length k + 1 is "a" with
    k letters prepended, so there are g(k, 1) of them.  A word of at most
    ``max_len`` letters uses at most ``max_len`` of them, so a is capped
    there; that leaves every g(k, u) with u + k <= ``max_len`` exact, and
    g(k, 1) for k < ``max_len`` are among them.  Summed, the counts give the
    words up to renaming: sums of Stirling numbers of the second kind."""
    a = min(alphabet_size, max_len)
    row = [1] * (a + 1)
    yield 1
    for _ in range(max_len - 1):
        row = [u * row[u] + (row[u + 1] if u < a else 0) for u in range(a + 1)]
        yield row[1]


# ------------------------------------------------------------------- blocks

def _plan_blocks(alphabet_size: int, max_len: int) -> tuple[int, list[str]]:
    """The suffix length ``b`` of the sweep's blocks, and the blocks: the
    words shorter than ``b``, then one block per right-canonical suffix of
    length ``b``.  ``b`` is the longest length up to ``BLOCK_SUFFIX_LEN`` and
    ``max_len`` with at most ``2**(BLOCK_SUFFIX_LEN - 1)`` suffixes, which
    is the binary count at ``BLOCK_SUFFIX_LEN``.  The suffixes of length m
    are the words of length m, so they are counted; one walk to ``b`` lists
    those of length ``b``."""
    suffixes = _length_counts(alphabet_size, min(BLOCK_SUFFIX_LEN, max_len))
    limit = 2 ** (BLOCK_SUFFIX_LEN - 1)
    b = max(m for m, count in enumerate(suffixes, 1) if count <= limit)
    blocks = [""]

    def visit(buf, i, distinct, doubles):
        if i == 0:
            blocks.append(Word(buf[i:]).text)
        return True

    _walk(alphabet_size, b, b"", visit)
    return b, blocks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _process_block(args: tuple) -> tuple[str, dict]:
    alphabet_size, max_len, b, block_id = args
    lengths: dict[int, LengthStats] = {}
    findings: list[tuple[str, str, str]] = []

    def visit(buf, i, distinct, doubles):
        n = len(buf) - i
        st = lengths.get(n)
        if st is None:
            st = lengths[n] = LengthStats()
        if distinct > st.max_distinct_squares:
            st.max_distinct_squares = distinct
        run = _longest_run(doubles) if doubles else 0
        st.run_hist[run] = st.run_hist.get(run, 0) + 1
        st.double_square_positions += len(doubles)
        # s_i > 2, a run and distinct >= 2n need some s_i >= 2: else distinct <= n.
        if doubles:
            word = Word(_left_canonical(buf[i:]))
            roots = {k - i + 1: ps for k, ps in doubles.items()}
            checked = check_word(word, roots, distinct)
            kinds = [pair.kind for pair in checked.pairs]
            st.pairs_equal += kinds.count(PairKind.EQUAL)
            st.pairs_unequal += kinds.count(PairKind.UNEQUAL)
            findings.extend((prop, word.text, detail) for prop, detail in checked.findings)
        return True

    if block_id:
        _walk(alphabet_size, max_len, Word.from_text(block_id).codes, visit)
    elif b > 1:
        _walk(alphabet_size, b - 1, b"", visit)
    return block_id, {"lengths": lengths, "findings": findings}


# ----------------------------------------------------------------- findings

@dataclass(frozen=True, slots=True)
class WordCheck:
    """What ``check_word`` found: the FS-double squares, the adjacent pairs
    with their mates and the findings as (property, detail) pairs."""

    squares: tuple[FsDoubleSquare, ...]
    pairs: tuple[PairClassification, ...]
    findings: tuple[tuple[str, str], ...]


def _longest_run(roots: dict) -> int:
    return max((length for _, length in runs_of_two(roots)), default=0)


def check_word(word: Word, roots: dict, distinct: int) -> WordCheck:
    """Check every property of ``ALL_PROPERTIES`` on ``word``, given its
    distinct-square count and a rightmost-root map (1-based positions) with
    every position where s_i >= 2, which gives the largest s_i and the runs
    of 2's.  A position that does not factor is a finding that leaves no
    squares and no pairs; otherwise every adjacent pair, infeasible ones
    included, gets its checks, end order and mate.  A case-10 pair (b = A)
    is a gamma mate unless p1 = 1 and |x1 x2| = 2 (gamma needs 2 < p1 |x1 x2|
    at distance 2), and then epsilon, as x1 and x2 are distinct letters.  So
    ``pair_shapes`` and ``adjacent_mates`` report the same pair twice, and
    both findings stay: each claim is checked on its own.  Every check
    reads only the positions with s_i >= 2: the largest s_i is tested
    against 2, runs count only 2's, and only those positions factor."""
    n = len(word)
    roots = {k: ps for k, ps in roots.items() if len(ps) >= 2}
    max_s = max(map(len, roots.values()), default=0)
    run = _longest_run(roots)
    findings: list[tuple[str, str]] = []
    if max_s > 2:
        findings.append(("census_max_two", f"max s_i = {max_s}"))
    if n and distinct >= 2 * n:
        findings.append(("distinct_below_twice_length",
                         f"{distinct} distinct squares at length {n}"))
    if n and 7 * run >= n:
        findings.append(("run_length_bound", f"7*{run} >= {n}"))
    squares: list[FsDoubleSquare] = []
    try:
        squares = find_fs_double_squares(word, roots)
    except CounterexampleError as exc:
        findings.append(("factorization_roundtrip", str(exc)))
    pairs = find_double_square_pairs(squares)
    for pair in pairs:
        first, second = pair.first, pair.second
        if pair.kind is PairKind.INFEASIBLE:
            findings.append(("pair_shapes", f"adjacent double squares at position {pair.position} "
                             f"of {word.text!r} realise infeasible length ordering case {pair.case}: "
                             f"({first.sq_len}, {first.SQ_len}, {second.sq_len}, {second.SQ_len})"))
        elif not pair.all_checks_pass:
            failed = [c.name for c in pair.checks if not c.passed]
            findings.append((f"{pair.kind.value}_pair_checks",
                             f"position {pair.position}: failed {failed}"))
        if second.end <= first.end:
            findings.append(("pair_end_order",
                             f"position {pair.position}: second square does not end after first"))
        if pair.mate is None:
            findings.append(("adjacent_mates",
                             f"double squares at positions {first.position} and "
                             f"{second.position} (roots {first.sq_len}/{first.SQ_len} and "
                             f"{second.sq_len}/{second.SQ_len}) fit no mate category"))
        elif pair.mate.label not in (MateLabel.ALPHA, MateLabel.DELTA):
            findings.append(("adjacent_mates",
                             f"position {pair.position}: mate {pair.mate.label.value}"))
    return WordCheck(tuple(squares), tuple(pairs), tuple(findings))


# --------------------------------------------------------------- checkpoint

def _checkpoint_header(alphabet_size: int, max_len: int, b: int) -> str:
    return "\t".join([
        CHECKPOINT_MAGIC,
        f"version={CHECKPOINT_VERSION}",
        f"alphabet_size={alphabet_size}",
        f"max_len={max_len}",
        f"block_prefix_len={b}",
        "properties=" + ",".join(ALL_PROPERTIES),
    ])


def _block_line(block_id: str, partial: dict) -> str:
    payload = {
        "lengths": {str(n): st.to_json_dict() for n, st in sorted(partial["lengths"].items())},
        "findings": partial["findings"],
    }
    return f"block\t{block_id or '-'}\t{json.dumps(payload, sort_keys=True)}\n"


def _open_checkpoint(path: str, header: str, blocks: list[str]):
    """The blocks the checkpoint at ``path`` records, and the file opened
    for appending.  A missing file, or a start of ``header`` with no
    newline, starts fresh.  A trailing line without its newline was cut
    short: it is cut off and its block recomputed.  A first line that is not
    ``header``, or a later line that is no record of a block in ``blocks``,
    is refused before the file is written."""
    data = b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
    if header.encode("ascii").startswith(data):
        fh = open(path, "w", encoding="ascii")
        fh.write(header + "\n")
        fh.flush()
        return {}, fh
    cut = data.rfind(b"\n") + 1
    lines = data[:cut].splitlines() or [data]  # an unfinished first line is checked too
    fields = lines[0].decode("ascii", "replace").split("\t")
    if fields[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not an fsdsq sweep checkpoint")
    if len(fields) > 1 and fields[1] != f"version={CHECKPOINT_VERSION}":
        version = fields[1].removeprefix("version=")
        raise ValueError(
            f"checkpoint {path} has format version {version}; this fsdsq reads only "
            f"version {CHECKPOINT_VERSION}, whose blocks are keyed by suffix. "
            "Delete it to start the sweep over")
    if lines[0] != header.encode("ascii"):
        differ = [f for f in fields if f not in header.split("\t")]
        raise ValueError(f"checkpoint {path} does not match this sweep configuration"
                         + (f": it has {', '.join(differ)}" if differ else ""))
    done: dict[str, dict] = {}
    for number, line in enumerate(lines[1:], start=2):
        try:
            kind, rendered, payload = line.decode("ascii").split("\t", 2)
            block_id = "" if rendered == "-" else rendered
            if kind != "block" or block_id not in blocks:
                raise ValueError(kind, block_id)
            record = json.loads(payload)
            done[block_id] = {
                "lengths": {int(n): LengthStats.from_json_dict(st)
                            for n, st in record["lengths"].items()},
                "findings": [tuple(f) for f in record["findings"]],
            }
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"checkpoint {path} line {number} is not a block record") from exc
    if cut < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(cut)
    return done, open(path, "a", encoding="ascii")


# -------------------------------------------------------------------- sweep

def exhaustive_verify(alphabet_size: int, max_len: int, *, checkpoint_path: str | None = None,
                      parallelism: int = 1, allow_over_ceiling: bool = False) -> SweepReport:
    """Census and property-check every canonical word up to ``max_len``."""
    a, n = alphabet_size, max_len
    if a < 1 or n < 1:
        raise ValueError("alphabet_size and max_len must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    deepest = sys.getrecursionlimit() - WALK_STACK_MARGIN
    if n > deepest:  # the override cannot lift this one
        raise ValueError(f"length {n} exceeds {deepest}, the deepest walk at this recursion limit")
    if not allow_over_ceiling:  # stop there: a wide sweep's full count has 1,000s of digits
        for m, words in enumerate(itertools.accumulate(_length_counts(a, n)), 1):
            if words > MAX_SWEEP_WORDS:
                raise CostCeilingError(
                    f"alphabet size {a} to length {n} is {'' if m == n else 'more than '}"
                    f"{words:,} canonical words, over the ceiling of {MAX_SWEEP_WORDS:,}; "
                    "pass the override flag to run anyway")

    b, blocks = _plan_blocks(a, n)
    done: dict[str, dict] = {}
    checkpoint = None
    if checkpoint_path is not None:
        done, checkpoint = _open_checkpoint(checkpoint_path, _checkpoint_header(a, n, b), blocks)
    args = [(a, n, b, block_id) for block_id in blocks if block_id not in done]
    workers = min(parallelism, len(args), _usable_cpus())
    if workers > 1:  # at most one worker per WORDS_PER_WORKER words still to sweep
        pending = sum(_length_counts(a, n)) - sum(
            st.words for partial in done.values() for st in partial["lengths"].values())
        workers = min(workers, max(1, pending // WORDS_PER_WORKER))
    try:
        with Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
            if pool is None:
                results = map(_process_block, args)
            else:  # about four chunks per worker, as ``Pool.map`` sizes them: at
                # --jobs 2 on 2 CPUs, binary 16 took 0.147 s and ternary 11 0.099 s
                # against 0.171 s and 0.110 s in chunks of one block (CHANGES.md)
                results = pool.imap_unordered(_process_block, args,
                                              max(1, len(args) // (4 * workers)))
            for block_id, partial in results:
                done[block_id] = partial
                if checkpoint is not None:
                    checkpoint.write(_block_line(block_id, partial))
                    checkpoint.flush()
    finally:
        if checkpoint is not None:
            checkpoint.close()

    return _fold(blocks, done, a, n)


def _fold(blocks: list[str], done: dict, alphabet_size: int, max_len: int) -> SweepReport:
    per_length: dict[int, LengthStats] = {}
    findings: list[Finding] = []
    for block_id in blocks:
        partial = done[block_id]
        for n, st in partial["lengths"].items():
            per_length.setdefault(n, LengthStats()).merge(st)
        findings.extend(Finding(*f) for f in partial["findings"])
    findings.sort(key=lambda f: (len(f.word), f.word))
    for st in per_length.values():
        st.run_hist = dict(sorted(st.run_hist.items()))
    return SweepReport(
        alphabet_size=alphabet_size,
        max_len=max_len,
        per_length=dict(sorted(per_length.items())),
        findings=tuple(findings),
    )
