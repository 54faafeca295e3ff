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
every position with s_i >= 2, off which ``pairs.check_word`` reads the
runs of 2's, the largest s_i and the structure without rescanning.  The
words of the last length, half or more of a sweep over two or more
letters, skip the walk's stack: a loop visits them right after their
parent, and their visit results are not read.

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
Partial aggregates merge by sums and maxima, findings are sorted by
(length, word), and the JSON report sorts each ``run_hist``, whose order
nothing else reads, so the report does not depend on worker count,
completion order or checkpoint resume points.  The checkpoint file is
line-oriented text: a header that records b, then one ``block`` line
appended and flushed per completed block.  A resume drops a trailing line that a crash cut short
and recomputes that block.  A checkpoint of another sweep or block plan, or
one with a record of a block outside the plan, of other lengths or word
counts than its block's, or with a ``words`` or ``max_run`` that its
``run_hist`` does not give, is refused before it is written.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass, field
from multiprocessing import Pool

from .census import _census_step
from .errors import CostCeilingError
from .pairs import ALL_PROPERTIES, PairKind, check_word
from .words import Word

# A sweep of more canonical words than this is refused unless overridden.
# It is the binary count to length 18.  A word costs 0.8 to 1.5 us of one CPU
# (reference-scaled) on any alphabet from 2 to 26 letters, so every sweep
# under it takes less than a second (the measured table is in CHANGES.md).
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

@dataclass(slots=True)
class LengthStats:
    """Aggregates over the words of one length; ``run_hist`` counts them by longest run
    of 2's.  A block's walk updates it for each word with a double square, its
    counts are completed when the walk ends, and ``merge`` adds another block's."""

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
        """The stats of ``to_json_dict``'s record ``d``; a ValueError if its
        ``words`` or ``max_run`` is not what its ``run_hist`` gives."""
        st = cls(max_distinct_squares=d["max_distinct_squares"],
                 run_hist={int(t): c for t, c in d["run_hist"].items()},
                 pairs_equal=d["pairs_equal"], pairs_unequal=d["pairs_unequal"],
                 double_square_positions=d["double_square_positions"])
        if (d["words"], d["max_run"]) != (st.words, st.max_run):
            raise ValueError("words or max_run disagree with run_hist")
        return st


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
    true.  The words still to visit wait on a stack of its own, children
    pushed last letter first, so at any length the visit order is a
    recursion's: pre-order, letters ascending.  The words of the last
    level, at index 0, skip the stack: a loop visits them right after their
    parent, and their visit results are not read, since they have no
    children.  A word whose first letter is new, one past the largest
    letter of the rest, skips the census step and its probes: that letter
    is absent from the rest, so m_i = 0 and it starts no square (the
    absent-letter fact of ``census.py``), and the walk carries the state
    the probes would end at.
    """
    L = max_len
    buf = bytearray(L)
    first = L - len(suffix)  # an empty suffix starts at "a": buf[L - 1] is already 0
    buf[first:] = suffix
    step = _census_step(buf)
    top = alphabet_size - 1
    # The largest child letter of a word whose largest letter is ``used``.
    nexts = tuple(min(used + 1, top) for used in range(alphabet_size))
    doubles: dict[int, list[int]] = {}
    # Each entry is (i, the letter at i, the largest letter of buf[i+1:] or
    # -1, and the state of buf[i+1:]: m_{i+1}, a later-match start and the
    # distinct count).  The letters of ``suffix`` are in ``buf`` and pass
    # unvisited.
    stack = [(L - 1, buf[L - 1], -1, -1, L, 0)]  # from the empty word at L
    while stack:
        i, c, used, m, j, distinct = stack.pop()
        # Keys go in descending along a path, so those that a finished
        # subtree left, all <= i, are the last ones in.
        while doubles and next(reversed(doubles)) <= i:
            doubles.popitem()
        buf[i] = c
        if c > used:  # absent from buf[i+1:]: the probes' end state, m_i = 0 and no root
            used = c
            m, j = 0, i + 1
        else:
            m, j, ps = step(i, m, j)
            if ps:
                k = len(ps)
                if k >= 2:
                    doubles[i] = ps
                distinct += k
        if i > first:
            stack.append((i - 1, buf[i - 1], used, m, j, distinct))
        elif visit(buf, i, distinct, doubles):
            if i > 1:
                for c in range(nexts[used], -1, -1):
                    stack.append((i - 1, c, used, m, j, distinct))
            elif i:  # children at index 0 have none: visit them here, letters ascending
                for c in range(used + 1):
                    buf[0] = c
                    ps = step(0, m, j)[2]
                    if len(ps) < 2:
                        visit(buf, 0, distinct + len(ps), doubles)
                    else:
                        doubles[0] = ps
                        visit(buf, 0, distinct + len(ps), doubles)
                        del doubles[0]
                if used < top:  # a new letter: m_0 = 0, so no root
                    buf[0] = used + 1
                    visit(buf, 0, distinct, doubles)


# ------------------------------------------------------------------- counts

def _length_counts(alphabet_size: int, max_len: int, used: int = 1):
    """Yield the number of right-canonical words of each length 1, ...,
    ``max_len``.  Let g(k, u) be the number of ways to prepend k letters to
    a right-canonical word that uses u distinct letters and keep it
    right-canonical.  The letter next to the word is one of its u letters
    or, while u < a, the next new one, so g(0, u) = 1 and g(k, u) =
    u g(k-1, u) + [u < a] g(k-1, u+1).  A word of length k + 1 is "a" with
    k letters prepended, so there are g(k, 1) of them.  With ``used`` = u
    the counts are g(0, u), ..., g(``max_len`` - 1, u) instead: the words
    of each length from that of a suffix over u letters on, that end in it.
    g(k, u) reads no g(k', u') with u' + k' > u + k, so a is capped at
    ``max_len`` + u - 1; that leaves every count yielded exact.  Summed,
    the counts from u = 1 give the words up to renaming: sums of Stirling
    numbers of the second kind."""
    a = min(alphabet_size, max_len + used - 1)
    row = [1] * (a + 1)
    for _ in range(max_len):
        yield row[used]
        row = [u * row[u] + (row[u + 1] if u < a else 0) for u in range(a + 1)]


def _block_counts(alphabet_size: int, max_len: int, b: int, block_id: str) -> dict[int, int]:
    """The exact number of words of each length in a block: lengths 1 to
    b - 1 for the block "", and b to ``max_len`` for a suffix."""
    if not block_id:
        return dict(enumerate(_length_counts(alphabet_size, b - 1), 1))
    return dict(enumerate(_length_counts(alphabet_size, max_len - b + 1, len(set(block_id))), b))


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
    size = max_len if block_id else b - 1  # the walk's buffer; index i is length size - i
    words = [0] * size  # by buffer index: the words, and the largest distinct count
    most = [0] * size
    stats: dict[int, LengthStats] = {}  # by buffer index, for the words with doubles
    findings: list[tuple[str, str, str]] = []

    def visit(buf, i, distinct, doubles):
        words[i] += 1
        if distinct > most[i]:
            most[i] = distinct
        # s_i > 2, a run and distinct >= 2n need some s_i >= 2: else distinct <= n.
        if doubles:
            st = stats.get(i)
            if st is None:
                st = stats[i] = LengthStats()
            st.double_square_positions += len(doubles)
            word = Word(_left_canonical(buf[i:]))
            roots = {k - i + 1: ps for k, ps in doubles.items()}
            checked = check_word(word, roots, distinct)
            kinds = [pair.kind for pair in checked.pairs]
            st.pairs_equal += kinds.count(PairKind.EQUAL)
            st.pairs_unequal += kinds.count(PairKind.UNEQUAL)
            findings.extend((prop, word.text, detail) for prop, detail in checked.findings)
            st.run_hist[checked.run] = st.run_hist.get(checked.run, 0) + 1
        return True

    if size:  # the block "" of b = 1 has no words
        _walk(alphabet_size, size, Word.from_text(block_id).codes, visit)
    lengths: dict[int, LengthStats] = {}
    for i in range(size - 1, -1, -1):
        if words[i]:
            st = lengths[size - i] = stats.get(i) or LengthStats()
            st.max_distinct_squares = most[i]
            # a run of 0 is every word without doubles and those with doubles but no run
            if zero := words[i] - sum(c for t, c in st.run_hist.items() if t):
                st.run_hist[0] = zero
    return block_id, {"lengths": lengths, "findings": findings}


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


def _open_checkpoint(path: str, alphabet_size: int, max_len: int, b: int, blocks: list[str]):
    """The blocks the checkpoint at ``path`` records, and the file opened
    for appending.  A missing file, or a start of the sweep's header with no
    newline, starts fresh.  A trailing line without its newline was cut
    short: it is cut off and its block recomputed.  A first line that is not
    the header, or a later line that is no record of a block in ``blocks``,
    is refused before the file is written.  So is a record whose lengths or
    word counts are not exactly its block's, from ``_block_counts``, or
    whose ``words`` or ``max_run`` disagree with its ``run_hist``."""
    header = _checkpoint_header(alphabet_size, max_len, b)
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
            lengths = {int(n): LengthStats.from_json_dict(st)
                       for n, st in record["lengths"].items()}
            if ({n: st.words for n, st in lengths.items()}
                    != _block_counts(alphabet_size, max_len, b, block_id)):
                raise ValueError(block_id, "word counts")
            done[block_id] = {
                "lengths": lengths,
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
        done, checkpoint = _open_checkpoint(checkpoint_path, a, n, b, blocks)
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
    for block_id in blocks:  # sum into each length's first record; drop blocks once merged
        partial = done.pop(block_id)
        for n, st in partial["lengths"].items():
            if (total := per_length.setdefault(n, st)) is not st:
                total.merge(st)
        findings.extend(Finding(*f) for f in partial["findings"])
    findings.sort(key=lambda f: (len(f.word), f.word))
    return SweepReport(
        alphabet_size=alphabet_size,
        max_len=max_len,
        per_length=dict(sorted(per_length.items())),
        findings=tuple(findings),
    )
