"""FS-double squares: detection, canonical factorization, mate labels.

A position whose census value is 2 starts the last occurrences of two
distinct squares sq^2 and SQ^2 with |sq| < |SQ| < 2|sq|.  The roots then
factor canonically as

    sq = (x1 x2)^p1 x1        SQ = (x1 x2)^p1 x1 (x1 x2)^p2

with x1, x2 nonempty, x1 x2 primitive and p1 >= p2 >= 1.  The factorization
is recovered from the suffix of SQ of length |SQ| - |sq|: that suffix is
(x1 x2)^p2, so its primitive root is x1 x2 exactly, which pins down every
other component.  Recovery is unambiguous, unlike reading periods off sq.

``Factorization`` alone validates this shape; three facts follow from it
and are never tested.  Let u = x1 x2, l = |u| and r = |x1|, so 0 < r < l.
Lemma: if u is primitive and s >= 2, then z = u^s x1 is primitive.  Proof: z
has period l < |z|/2.  If z = v^k with k >= 2, then l + |v| < |z|, so by
Fine and Wilf z has period gcd(l, |v|), which is l as u = z[:l] is
primitive.  So l divides |v|, hence |z|, hence r: against 0 < r < l.
1. The roots are primitive: sq is z with s = p1 when p1 >= 2, and SQ is a
   rotation of u^p2 sq = z with s = p1 + p2 (rotation keeps primitivity).
2. ``canonical_factorization`` finds p1 >= p2: its balance check gives
   p2 l = |SQ| - |sq| < |sq| = p1 l + r < (p1 + 1) l.
3. There SQ rebuilds exactly when sq does: ``primitive_root`` gives
   u^p2 = SQ[|sq|:], and the prefix check gives SQ[:|sq|] = sq.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import CounterexampleError, FactorizationError
from .words import Word, is_primitive, lcp, primitive_root


@dataclass(frozen=True)
class Factorization:
    """Canonical (x1, x2, p1, p2) split of a double-square pair of roots."""

    x1: Word
    x2: Word
    p1: int
    p2: int

    def __post_init__(self) -> None:
        if not self.x1 or not self.x2:
            raise FactorizationError("x1 and x2 must be nonempty")
        if not self.p1 >= self.p2 >= 1:
            raise FactorizationError(f"exponents must satisfy p1 >= p2 >= 1, got ({self.p1}, {self.p2})")
        if not is_primitive(self.x1 + self.x2):
            raise FactorizationError("x1 x2 must be primitive")

    # Built once per instance; equality, hash and repr still use the fields.
    @cached_property
    def period(self) -> Word:
        return self.x1 + self.x2

    @cached_property
    def short_root(self) -> Word:
        return self.period * self.p1 + self.x1

    @cached_property
    def long_root(self) -> Word:
        return self.short_root + self.period * self.p2


def canonical_factorization(sq: Word, SQ: Word) -> Factorization:
    """Recover (x1, x2, p1, p2) from the two roots of a double square.

    Requires sq to be a proper prefix of SQ with |sq| < |SQ| < 2|sq|.
    """
    ns, nl = len(sq), len(SQ)
    if not ns < nl < 2 * ns:
        raise FactorizationError(f"roots are not balanced: |sq|={ns}, |SQ|={nl}")
    if SQ[:ns] != sq:
        raise FactorizationError("short root is not a prefix of the long root")
    period, p2 = primitive_root(SQ[ns:])
    p1, r = divmod(ns, len(period))
    if r == 0:
        raise FactorizationError("no canonical factorization: x1 would be empty")
    fact = Factorization(period[:r], period[r:], p1, p2)
    if fact.short_root != sq:  # then long_root == SQ too (module docstring, fact 3)
        raise FactorizationError("roots do not reconstruct from the factorization")
    return fact


@dataclass(frozen=True)
class FsDoubleSquare:
    """An FS-double square: position (1-based) where two rightmost distinct
    squares start, and the factorization of their roots sq and SQ.  By the
    module docstring's lemma, SQ is primitive, and so is sq when p1 > 1."""

    position: int
    factorization: Factorization

    @property
    def sq_len(self) -> int:
        return len(self.factorization.short_root)

    @property
    def SQ_len(self) -> int:
        return len(self.factorization.long_root)

    @property
    def end(self) -> int:
        """1-based last position covered by the long square."""
        return self.position + 2 * self.SQ_len - 1

    def to_json_dict(self) -> dict:
        f = self.factorization
        return {
            "position": self.position,
            "sq_len": self.sq_len,
            "SQ_len": self.SQ_len,
            "x1": f.x1.text,
            "x2": f.x2.text,
            "p1": f.p1,
            "p2": f.p2,
        }


def find_fs_double_squares(w: Word, roots: dict[int, list[int]]) -> list[FsDoubleSquare]:
    """All FS-double squares of ``w``, by position.

    ``roots`` is the rightmost-root map of ``w`` (``CensusReport.roots``).
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
        sq_len, SQ_len = ps
        i = pos - 1
        try:
            fact = canonical_factorization(w[i:i + sq_len], w[i:i + SQ_len])
            out.append(FsDoubleSquare(pos, fact))
        except FactorizationError as exc:
            raise CounterexampleError(
                f"position {pos} of {w.text!r} has two rightmost squares "
                f"(roots {sq_len}, {SQ_len}) but no canonical factorization: {exc}") from exc
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
    f = first.factorization
    x1, x2, period = f.x1, f.x2, f.period
    sqk = second.factorization.short_root
    nk = len(sqk)
    tail = period * (f.p1 + f.p2 - 1) + x1

    core = x2 + x1 + tail
    for slen in range(len(x1), -1, -1):
        cand = x1[len(x1) - slen:] + core
        if len(cand) <= nk and sqk[:len(cand)] == cand:
            return "rotated_suffix" if slen else "rotated_suffix_empty"

    for slen in range(len(period) + 1):
        s = period[len(period) - slen:]
        i = 1
        while True:
            cand = s + period * i + x1 + tail
            if len(cand) >= nk:
                break
            if sqk[:len(cand)] == cand:
                return "power_prefix"
            i += 1
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
    f = first.factorization
    ell = len(f.period)
    if second.SQ_len == first.SQ_len and second.sq_len == first.sq_len:
        return MateClassification(MateLabel.ALPHA)
    if first.sq_len < second.sq_len and second.SQ_len == first.SQ_len:
        return MateClassification(MateLabel.BETA)
    if k < f.p1 * ell and second.sq_len == first.SQ_len:
        return MateClassification(MateLabel.GAMMA)
    if second.sq_len > first.SQ_len:
        rule = _delta_prefix_rule(first, second)
        if rule is not None:
            return MateClassification(MateLabel.DELTA, delta_rule=rule)
    if k >= (f.p1 - 1) * ell + lcp(f.period, f.x2 + f.x1):
        return MateClassification(MateLabel.EPSILON)
    return None
