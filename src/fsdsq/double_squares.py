"""FS-double squares: detection, canonical factorization, mate labels.

A position whose census value is 2 starts the last occurrences of two
distinct squares sq^2 and SQ^2 with |sq| < |SQ| < 2|sq|.  The roots then
factor canonically as

    sq = (x1 x2)^p1 x1        SQ = (x1 x2)^p1 x1 (x1 x2)^p2

with x1, x2 nonempty, x1 x2 primitive and p1 >= p2 >= 1.  The factorization
is recovered from the suffix of SQ of length |SQ| - |sq|: that suffix is
(x1 x2)^p2, so its primitive root is x1 x2 exactly, which pins down every
other component.  Recovery is unambiguous, unlike reading periods off sq.

An ``FsDoubleSquare`` is numbers over a word's bytes: the offset of SQ,
|sq|, |SQ|, r = |x1|, l = |x1 x2|, p1 and p2.  Its constructor, the one
way to build a record, reads them off the two root lengths with one divisor
scan of SQ[|sq|:] and one compare that rebuilds sq; a ``Word`` is built only
when x1, x2 or the JSON is read.  Found and hand-built records take this one
path, which needs no primitivity test and no compare of SQ, by the lemma
and three facts below.
Let u = x1 x2, so 0 < r < l.
Lemma: if u is primitive and s >= 2, then z = u^s x1 is primitive.  Proof: z
has period l < |z|/2.  If z = v^k with k >= 2, then l + |v| < |z|, so by
Fine and Wilf z has period gcd(l, |v|), which is l as u = z[:l] is
primitive.  So l divides |v|, hence |z|, hence r: against 0 < r < l.
1. The roots are primitive: sq is z with s = p1 when p1 >= 2, and SQ is a
   rotation of u^p2 sq = z with s = p1 + p2 (rotation keeps primitivity).
2. p1 >= p2 >= 1 and u is primitive: the balance check gives p2 l = |SQ| -
   |sq| < |sq| = p1 l + r < (p1 + 1) l, and u is the root the scan finds.
3. SQ rebuilds exactly when sq does: the scan gives u^p2 = SQ[|sq|:], and
   both roots start at one offset of one word, so SQ[:|sq|] = sq.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import CounterexampleError, FactorizationError
from .words import Word, lcp, root_length


class FsDoubleSquare:
    """An FS-double square: the position (1-based) where two rightmost
    distinct squares start, and the factorization of their roots sq and SQ
    as numbers over the bytes ``codes``, where SQ starts at ``offset``.  By
    the module docstring's lemma, SQ is primitive, and so is sq when p1 > 1."""

    __slots__ = ("codes", "offset", "position", "sq_len", "SQ_len", "x1_len", "period_len",
                 "p1", "p2")

    def __init__(self, codes: bytes, offset: int, position: int, sq_len: int,
                 SQ_len: int) -> None:
        """Factor the roots codes[offset:offset+sq_len] and
        codes[offset:offset+SQ_len], or raise ``FactorizationError``."""
        if not sq_len < SQ_len < 2 * sq_len:
            raise FactorizationError(f"roots are not balanced: |sq|={sq_len}, |SQ|={SQ_len}")
        if offset + SQ_len > len(codes):
            raise FactorizationError("the long root runs past the end of the word")
        ell = root_length(codes[offset + sq_len:offset + SQ_len])
        p1, r = divmod(sq_len, ell)
        if r == 0:
            raise FactorizationError("no canonical factorization: x1 would be empty")
        u = codes[offset + sq_len:offset + sq_len + ell]
        if u * p1 + u[:r] != codes[offset:offset + sq_len]:  # then SQ rebuilds too (fact 3)
            raise FactorizationError("roots do not reconstruct from the factorization")
        self.codes, self.offset, self.position, self.sq_len, self.SQ_len = (
            codes, offset, position, sq_len, SQ_len)
        self.x1_len, self.period_len, self.p1, self.p2 = r, ell, p1, (SQ_len - sq_len) // ell

    def prefix(self, length: int) -> bytes:
        """The first ``length`` letters of SQ: x1, x1 x2, sq or SQ."""
        return self.codes[self.offset:self.offset + length]

    @property
    def x1(self) -> Word:
        return Word(self.prefix(self.x1_len))

    @property
    def x2(self) -> Word:
        return Word(self.codes[self.offset + self.x1_len:self.offset + self.period_len])

    @property
    def end(self) -> int:
        """1-based last position covered by the long square."""
        return self.position + 2 * self.SQ_len - 1

    def __eq__(self, other: object) -> bool:
        """Same position and split: the numbers and the letters of x1 x2,
        which is what ``to_json_dict`` holds.  Records stay unhashable."""
        if not isinstance(other, FsDoubleSquare):
            return False
        return ((self.position, self.sq_len, self.SQ_len, self.x1_len, self.period_len,
                 self.p1, self.p2) ==
                (other.position, other.sq_len, other.SQ_len, other.x1_len, other.period_len,
                 other.p1, other.p2)
                and self.prefix(self.period_len) == other.prefix(other.period_len))

    def __repr__(self) -> str:
        return (f"FsDoubleSquare({self.position}, x1={self.x1!r}, x2={self.x2!r}, "
                f"p1={self.p1}, p2={self.p2})")

    def to_json_dict(self) -> dict:
        return {
            "position": self.position,
            "sq_len": self.sq_len,
            "SQ_len": self.SQ_len,
            "x1": self.x1.text,
            "x2": self.x2.text,
            "p1": self.p1,
            "p2": self.p2,
        }


def find_fs_double_squares(w: Word, roots: dict[int, list[int]]) -> list[FsDoubleSquare]:
    """All FS-double squares of ``w``, by position.

    ``roots`` is a rightmost-root map of ``w`` with every position where
    s_i >= 2, such as ``CensusReport.doubles``; other positions are skipped.
    Any census-2 position that fails to factor, or carries more than two
    rightmost squares, is surfaced as a counterexample, never swallowed.
    """
    out: list[FsDoubleSquare] = []
    for pos in sorted(roots):
        ps = roots[pos]
        if len(ps) < 2:
            continue
        if len(ps) > 2:
            raise CounterexampleError(
                f"position {pos} of {w.text!r} starts {len(ps)} rightmost squares; "
                "at most two should be possible")
        try:
            out.append(FsDoubleSquare(w.codes, pos - 1, pos, *ps))
        except FactorizationError as exc:
            raise CounterexampleError(
                f"position {pos} of {w.text!r} has two rightmost squares "
                f"(roots {ps[0]}, {ps[1]}) but no canonical factorization: {exc}") from exc
    return out


class MateLabel(Enum):
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"
    DELTA = "delta"
    EPSILON = "epsilon"


@dataclass(frozen=True)
class MateClassification:
    label: MateLabel
    delta_rule: str | None = None


# Shared: every mate but delta is its label alone.
_MATE = {label: MateClassification(label) for label in MateLabel}


def _delta_prefix_rule(first: FsDoubleSquare, second: FsDoubleSquare) -> str | None:
    """Which structural prefix condition makes ``second`` a delta mate.

    Rule "rotated_suffix": s . x2 x1 (x1 x2)^(p1+p2-1) x1 is a prefix of the
    second short root for some suffix s of x1.  The suffix may be empty; the
    textbook statement wants it nonempty, but the adjacent unequal pair of
    the worked 61-letter example has |x1| = 1 and only matches with s empty.
    Rule "power_prefix": s (x1 x2)^i x1 (x1 x2)^(p1+p2-1) x1 is a proper
    nonempty prefix of the second short root for some suffix s of x1 x2 and
    some i >= 1.
    """
    period = first.prefix(first.period_len)
    x1, x2 = period[:first.x1_len], period[first.x1_len:]
    sqk = second.prefix(second.sq_len)
    tail = period * (first.p1 + first.p2 - 1) + x1
    core = x2 + x1 + tail
    for slen in range(len(x1), -1, -1):
        if sqk.startswith(x1[len(x1) - slen:] + core):
            return "rotated_suffix" if slen else "rotated_suffix_empty"
    for slen in range(len(period) + 1):
        # the candidate is shorter than sqk exactly for i up to this bound
        top = (len(sqk) - slen - len(x1) - len(tail) - 1) // len(period)
        for i in range(1, top + 1):
            if sqk.startswith(period[len(period) - slen:] + period * i + x1 + tail):
                return "power_prefix"
    return None


def classify_mate_detail(first: FsDoubleSquare,
                         second: FsDoubleSquare) -> MateClassification | None:
    """Mate category of ``second`` relative to ``first`` (same word), or
    None when it fits no category.

    The four near categories are decided by their own length and prefix
    conditions; the far category (epsilon) is the fallback once the second
    square starts at or beyond the reach threshold of the first.
    """
    k = second.position - first.position + 1
    if k <= 1:
        raise ValueError("second double square must start after the first")
    a, A, b, B = first.sq_len, first.SQ_len, second.sq_len, second.SQ_len
    if B == A and b == a:
        return _MATE[MateLabel.ALPHA]
    if a < b and B == A:
        return _MATE[MateLabel.BETA]
    if k < first.p1 * first.period_len and b == A:
        return _MATE[MateLabel.GAMMA]
    if b > A:
        rule = _delta_prefix_rule(first, second)
        if rule is not None:
            return MateClassification(MateLabel.DELTA, delta_rule=rule)
    period, r = first.prefix(first.period_len), first.x1_len
    if k >= (first.p1 - 1) * first.period_len + lcp(period, period[r:] + period[:r]):
        return _MATE[MateLabel.EPSILON]
    return None
