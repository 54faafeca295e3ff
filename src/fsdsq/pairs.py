"""Classification of FS-double squares at adjacent positions.

Writing a = |sq_1|, A = |SQ_1|, b = |sq_2|, B = |SQ_2| for the root lengths
of two double squares one position apart, the thirteen possible orderings
reduce to exactly two feasible shapes:

    case 12 (equal):    a = b < A = B
    case 13 (unequal):  a < A < b < B

Everything else (cases 1-11) contradicts the structure of double squares.
Such a pair is listed as ``INFEASIBLE`` with its case and no checks.  A
feasible pair carries its relation checks, evaluated and reported, not
asserted.  Every pair carries its mate.  Nothing here makes a finding:
``sweep.check_word`` writes every finding text.

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

from .double_squares import (FsDoubleSquare, MateClassification,
                             classify_mate_detail, find_fs_double_squares)
from .words import Word, are_conjugate


class PairKind(Enum):
    EQUAL = "equal"
    UNEQUAL = "unequal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class Check:
    name: str
    passed: bool


@dataclass(frozen=True)
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
      common prefix is nonempty exactly when their first letters agree.
    """
    f, g = first.factorization, second.factorization
    u, v, su, sv = f.long_root, g.long_root, f.short_root, g.short_root
    a = su[:1]
    return (
        Check("longer_squares_conjugate", are_conjugate(u, v)),
        Check("shorter_squares_conjugate", are_conjugate(su, sv)),
        Check("single_letter_shift", u + a == a + v),
        Check("x1_x2_common_prefix", f.x1[0] == f.x2[0]),
        Check("second_ends_after_first", second.end > first.end),
    )


def _unequal_checks(first: FsDoubleSquare, second: FsDoubleSquare) -> tuple[Check, ...]:
    """Length relations an unequal adjacent pair must satisfy."""
    f, g = first.factorization, second.factorization
    floor = first.SQ_len + first.sq_len + (f.p2 - 1) * (len(f.x1) + len(f.x2))
    return (
        Check("short_root_floor", second.sq_len >= floor),
        Check("period_strictly_grows", len(g.period) > len(f.period)),
        Check("long_root_doubles", second.SQ_len > 2 * first.SQ_len),
        Check("short_root_exceeds_sum", second.sq_len > first.SQ_len + first.sq_len),
        Check("second_ends_after_first", second.end > first.end),
    )


def find_double_square_pairs(
    w: Word, squares: list[FsDoubleSquare] | None = None
) -> list[PairClassification]:
    """Classify every pair of FS-double squares at adjacent positions.

    A pair matching neither feasible shape is classified ``INFEASIBLE``
    with its case label and no checks; ``sweep.check_word`` writes its
    ``pair_shapes`` finding.
    """
    if squares is None:
        squares = find_fs_double_squares(w)
    by_pos = {sq.position: sq for sq in squares}
    out: list[PairClassification] = []
    for pos in sorted(by_pos):
        first, second = by_pos[pos], by_pos.get(pos + 1)
        if second is None:
            continue
        case = ordering_case(first.sq_len, first.SQ_len, second.sq_len, second.SQ_len)
        checks = (_equal_checks(first, second) if case == 12
                  else _unequal_checks(first, second) if case == 13 else ())
        out.append(PairClassification(first, second, case, checks,
                                      classify_mate_detail(first, second)))
    return out

