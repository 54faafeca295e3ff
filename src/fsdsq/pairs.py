"""Classification of FS-double squares at adjacent positions, and a word's findings.

Writing a = |sq_1|, A = |SQ_1|, b = |sq_2|, B = |SQ_2| for the root lengths
of two double squares one position apart, the thirteen possible orderings
reduce to exactly two feasible shapes:

    case 12 (equal):    a = b < A = B
    case 13 (unequal):  a < A < b < B

Everything else (cases 1-11) contradicts the structure of double squares.
Such a pair is listed as ``INFEASIBLE`` with its case and no checks.  A
feasible pair carries its relation checks, evaluated and reported, not
asserted.  Every pair carries its mate.

``check_word`` is the one definition of a word's findings: it checks every
property of ``ALL_PROPERTIES`` and writes every finding text, for
``fsdsq verify``, ``fsdsq analyze`` and the constructions of ``fsdsq
generate`` alike.  The sweep calls it only on words with a position where
s_i >= 2, since no other word can raise a finding.

The long square slides right exactly when one more letter agrees.  With
SQ_1^2 = w[i:i+2A] (0-based), w[j] = w[j+A] for i <= j < i+A; a square of
root A at i+1 needs this for i+1 <= j <= i+A, where only j = i+A is new,
and w[i+A] = w[i].  So it exists exactly when w[i+2A] exists and equals
w[i], and its root SQ_1[1:] SQ_1[0] is SQ_1 rotated by one letter.  Case
10 (b = A) is thus the long square sliding alone.  Open finding, with no
proof either way: ``aabaaaabaabaaaababaaaabaabaaaab`` has roots (5, 8) at
position 1 and (8, 15) at position 2 (the cubic oracle agrees), factored
as (aa, b, 1, 1) and (a, baaaab, 1, 1), with mate gamma; the word keeps
its ``pair_shapes`` and ``adjacent_mates`` findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from .census import runs_of_two
from .double_squares import (FsDoubleSquare, MateClassification, MateLabel,
                             classify_mate_detail, find_fs_double_squares)
from .errors import CounterexampleError
from .words import Word, are_conjugate

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


class PairKind(Enum):
    EQUAL = "equal"
    UNEQUAL = "unequal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    passed: bool


@cache
def _checks(*outcomes: tuple[str, bool]) -> tuple[Check, ...]:
    """The checks of one outcome, built once and shared: a ``Check`` is frozen."""
    return tuple(Check(name, passed) for name, passed in outcomes)


@dataclass(slots=True)
class PairClassification:
    """Two FS-double squares at adjacent positions, the ordering case of
    their root lengths, the checks of that case and the mate of ``second``
    relative to ``first`` (None when it fits no category)."""

    first: FsDoubleSquare
    second: FsDoubleSquare
    case: int
    checks: tuple[Check, ...]
    mate: MateClassification | None

    @property
    def position(self) -> int:
        return self.first.position

    @property
    def kind(self) -> PairKind:
        return {12: PairKind.EQUAL, 13: PairKind.UNEQUAL}.get(self.case, PairKind.INFEASIBLE)

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        d = {
            "position": self.position,
            "kind": self.kind.value,
            "case": self.case,
            "first": self.first.to_json_dict(),
            "second": self.second.to_json_dict(),
            "checks": [{"name": c.name, "pass": c.passed} for c in self.checks],
            "mate": self.mate.label.value if self.mate else None,
        }
        if self.mate and self.mate.delta_rule:
            d["mate_rule"] = self.mate.delta_rule
        return d


def ordering_case(sq1: int, SQ1: int, sq2: int, SQ2: int) -> int:
    """Case label (1-13) of the length ordering of two adjacent pairs of
    roots.  Cases 12 and 13 are the feasible ones."""
    if not (sq1 < SQ1 and sq2 < SQ2):
        raise ValueError("each double square needs sq < SQ")
    if sq1 == sq2:
        if SQ1 == SQ2:
            return 12
        return 3 if SQ1 < SQ2 else 4
    if sq1 < sq2:
        if sq2 < SQ1:
            if SQ1 == SQ2:
                return 1
            return 11 if SQ1 < SQ2 else 9
        if sq2 == SQ1:
            return 10
        return 13
    # sq2 < sq1
    if sq1 < SQ2:
        if SQ1 == SQ2:
            return 2
        return 8 if SQ1 < SQ2 else 6
    if sq1 == SQ2:
        return 5
    return 7


def _equal_checks(first: FsDoubleSquare, second: FsDoubleSquare) -> tuple[Check, ...]:
    """Relations an equal adjacent pair must satisfy: both squares conjugate
    (long and short), the one-letter shift identity, and a nonempty common
    prefix of x1 and x2.  Each is decided on the shortest words that decide
    it.

    * Squares from roots: rotating uu by r gives the square of u rotated by
      r mod |u|, so for |u| = |v|, vv is a rotation of uu exactly when v is a
      rotation of u.  Roots of unequal lengths fail both ways.  The same
      holds for the short roots.
    * One identity: with a the first letter of u, u a = a v gives
      u u a = u (a v) = (u a) v = (a v) v, the square form of the shift.
    * First letters: x1 and x2 are nonempty (``Factorization``), so their
      common prefix is nonempty exactly when their first letters, SQ[0] and
      SQ[|x1|], agree.
    """
    u, v = first.prefix(first.SQ_len), second.prefix(second.SQ_len)
    a = u[:1]
    return _checks(
        ("longer_squares_conjugate", are_conjugate(u, v)),
        ("shorter_squares_conjugate", are_conjugate(u[:first.sq_len], v[:second.sq_len])),
        ("single_letter_shift", u + a == a + v),
        ("x1_x2_common_prefix", u[0] == u[first.x1_len]),
        ("second_ends_after_first", second.end > first.end),
    )


def _unequal_checks(first: FsDoubleSquare, second: FsDoubleSquare) -> tuple[Check, ...]:
    """Length relations an unequal adjacent pair must satisfy."""
    a, A, b, B = first.sq_len, first.SQ_len, second.sq_len, second.SQ_len
    return _checks(
        ("short_root_floor", b >= A + a + (first.p2 - 1) * first.period_len),
        ("period_strictly_grows", second.period_len > first.period_len),
        ("long_root_doubles", B > 2 * A),
        ("short_root_exceeds_sum", b > A + a),
        ("second_ends_after_first", second.end > first.end),
    )


def find_double_square_pairs(squares: list[FsDoubleSquare]) -> list[PairClassification]:
    """Classify every pair at adjacent positions of ``squares``, the
    FS-double squares of one word by position, as ``find_fs_double_squares``
    lists them.

    A pair matching neither feasible shape is classified ``INFEASIBLE``
    with its case label and no checks; ``check_word`` writes its
    ``pair_shapes`` finding.
    """
    out: list[PairClassification] = []
    for first, second in zip(squares, squares[1:]):
        if second.position != first.position + 1:
            continue
        case = ordering_case(first.sq_len, first.SQ_len, second.sq_len, second.SQ_len)
        checks = (_equal_checks(first, second) if case == 12
                  else _unequal_checks(first, second) if case == 13 else ())
        out.append(PairClassification(first, second, case, checks,
                                      classify_mate_detail(first, second)))
    return out


@dataclass(frozen=True, slots=True)
class WordCheck:
    """What ``check_word`` found: the FS-double squares, the adjacent pairs
    with their mates, the longest run of 2's and the findings as (property,
    detail) pairs."""

    squares: tuple[FsDoubleSquare, ...]
    pairs: tuple[PairClassification, ...]
    run: int
    findings: tuple[tuple[str, str], ...]


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
    reads only the positions with s_i >= 2, so ``roots`` may hold others:
    the largest s_i is tested against 2, runs count only 2's, and
    ``find_fs_double_squares`` skips the positions with fewer roots."""
    n = len(word)
    max_s = max(map(len, roots.values()), default=0)
    run = max((length for _, length in runs_of_two(roots)), default=0)
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
    return WordCheck(tuple(squares), tuple(pairs), run, tuple(findings))
