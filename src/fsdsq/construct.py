"""Constructions that realise long runs of census value 2.

``build_run(T)`` returns a closed-form word.  With x1 = a^(T-1) b,
u = x1 a and SQ = u x1 u, the word SQ SQ SQ[:T-1] has length 7T + 3 and a
run of exactly T census-2 positions at its start.  The double squares of
the run are conjugates of SQ^2, so every adjacent pair in it is equal, as
the paper shows for a longest run.

Two extensions grow a given word that ends in an FS-double square
(``generate --kind equal`` and ``--kind unequal``):

* equal: append the next prefix letter of the frontier square.  Each
  accepted letter shifts a conjugate of the frontier square one position
  right, so the run grows by one per letter until the conjugate supply is
  exhausted.
* unequal: rebuild the tail as a (V m V)^2 block derived from the
  frontier square (drop its first letter a, close with a breaking letter
  b != a).  The middle m is a short prefix of V, or V followed by such a
  prefix for the long variant.  This plants a much longer double square one
  position right of the frontier, roughly quadrupling the word.

Every returned word is re-verified by a full census and its findings are
those of ``pairs.check_word``; construction metadata is advisory only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .census import CensusReport, s_sequence
from .double_squares import FsDoubleSquare, find_fs_double_squares
from .errors import CounterexampleError, NoExtensionError
from .pairs import PairKind, WordCheck, check_word
from .words import Word


@dataclass(frozen=True, slots=True)
class BuildStep:
    kind: str  # "equal" | "unequal"
    letters: str


@dataclass(frozen=True)
class RunReport:
    """A constructed word, its census-verified run and ``check_word``'s findings."""

    word: Word
    T: int
    steps: tuple[BuildStep, ...]
    findings: tuple[tuple[str, str], ...]

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.T, self.n)

    def to_json_dict(self) -> dict:
        return {
            "word": self.word.text,
            "n": self.n,
            "T": self.T,
            "ratio": {"num": self.ratio.numerator, "den": self.ratio.denominator},
            "steps": [{"kind": s.kind, "letters": s.letters} for s in self.steps],
            "findings": [{"property": prop, "detail": detail}
                         for prop, detail in self.findings],
        }


def _run_report(report: CensusReport, steps: list[BuildStep] | tuple[BuildStep, ...],
                checked: WordCheck | None = None) -> RunReport:
    """The report of a census-verified word, with the findings of
    ``checked``, its ``check_word`` result, computed here when not given."""
    if checked is None:
        checked = check_word(report.word, report.doubles, report.distinct_square_count)
    return RunReport(word=report.word, T=checked.run, steps=tuple(steps),
                     findings=checked.findings)


def _equal_phase(report0: CensusReport) -> tuple[CensusReport, int]:
    """Append the word's own prefix letters while the leading run of 2's
    keeps growing.  Returns the census of the longest achieved word and the
    number of letters appended."""
    w0 = report0.word
    report = report0
    current = report0.leading_run
    k = 0
    while k < len(w0):
        cand = s_sequence(report.word + w0[k:k + 1])
        run = cand.leading_run
        if run <= current:
            break
        report, current, k = cand, run, k + 1
    return report, k


def extend_equal_run(seed: Word) -> RunReport:
    """Grow the run of an FS-double square word by appending its own prefix.

    ``seed`` must be exactly SQ^2 for a double square detected at position 1.
    Raises NoExtensionError when no appended letter lengthens the run.
    """
    seed_report = s_sequence(seed)
    squares = find_fs_double_squares(seed, seed_report.doubles)
    fs = next((q for q in squares if q.position == 1), None)
    if fs is None or 2 * fs.SQ_len != len(seed):
        raise ValueError("seed is not exactly the square of an FS-double-square root")
    report, appended = _equal_phase(seed_report)
    if not appended:
        raise NoExtensionError(
            "no equal extension: appending the seed's first letter does not "
            "lengthen the run of 2's at position 1")
    return _run_report(report, [BuildStep("equal", report.word[len(seed):].text)])


def _accepts_unequal(candidate: Word, frontier: int) -> tuple[CensusReport, WordCheck] | None:
    """The census and ``check_word`` result of ``candidate`` if it is accepted,
    else None.  A candidate with 2's at the frontier is screened by
    ``check_word``; one with a finding is returned, never silently rejected.
    Otherwise both frontier positions factor, so their pair exists; it is
    accepted when unequal.  Its long root then doubles: ``long_root_doubles``
    is an unequal check, and a failed one is an ``unequal_pair_checks`` finding."""
    report = s_sequence(candidate)
    s = report.s
    if s[frontier - 1] != 2 or s[frontier] != 2:  # a candidate runs past its frontier
        return None
    checked = check_word(candidate, report.doubles, report.distinct_square_count)
    pair = next((p for p in checked.pairs if p.position == frontier), None)
    if checked.findings or pair.kind is PairKind.UNEQUAL:
        return report, checked
    return None


def _unequal_candidates(w: Word, fs: FsDoubleSquare, variant: str):
    """Template candidates at the frontier square, most compact first.

    With a the frontier letter, b the breaking letter and v = (frontier
    square minus a) + b, each candidate is  prefix + a + (v m v)^2  where the
    middle m is a prefix v[:j] of v (short variant) or v + v[:j] (long).
    The frontier square ends the word, so prefix + a is w[:i] and the
    square minus a is w[i:].
    Any prefix middle makes (v m)^2 occur one position right of the
    frontier; the choice of j only decides whether older squares collide
    with the new tail, which the census acceptance test settles.
    """
    i = fs.position
    b = Word([1 if w[i - 1] == 0 else 0])
    v = w[i:] + b
    for j in range(1, len(v) + 1):
        middle = v[:j] if variant == "short" else v + v[:j]
        yield w[:i] + (v + middle + v) * 2


def extend_unequal(w: Word, variant: str = "short") -> RunReport:
    """Extend a word ending in an FS-double square with a new, longer double
    square one position right of the frontier.  The first accepted candidate
    is returned; NoExtensionError is raised when there is none."""
    if variant not in ("short", "long"):
        raise ValueError(f"unknown variant {variant!r}")
    if max(w.codes, default=0) == 0:
        raise ValueError("unequal extension needs at least two letters")
    squares = find_fs_double_squares(w, s_sequence(w).doubles)
    enders = [q for q in squares if q.end == len(w)]
    if not enders:
        raise ValueError("word does not end in an FS-double square")
    fs = max(enders, key=lambda q: q.position)
    for candidate in _unequal_candidates(w, fs, variant):
        accepted = _accepts_unequal(candidate, fs.position)
        if accepted is not None:
            report, checked = accepted
            return _run_report(report, [BuildStep("unequal", candidate[len(w):].text)], checked)
    raise NoExtensionError(
        f"no {variant} unequal extension: no template candidate at position "
        f"{fs.position} plants a longer double square one position right of it")


def _closed_form_census(target: int) -> tuple[int, ...]:
    """The census that ``build_run(target)`` predicts for its word.

    With T = target it is 2^T 0^(2T) 1^(T+1) 00 1^T, then 0^T (10)^(T/2)
    for even T or 0^(T+1) (10)^((T-1)/2) for odd T: 7T + 3 values.  This is
    an observation, not yet a theorem: it held on every T the census was run
    on, and ``build_run`` checks it on every word it builds.
    """
    t = target
    tail = [0] * t + [1, 0] * (t // 2) if t % 2 == 0 else [0] * (t + 1) + [1, 0] * ((t - 1) // 2)
    return tuple([2] * t + [0] * (2 * t) + [1] * (t + 1) + [0, 0] + [1] * t + tail)


def build_run(target: int) -> RunReport:
    """The closed-form word whose census has a run of exactly ``target``
    2's, starting at position 1.

    With T = target, x1 = a^(T-1) b, u = x1 a and SQ = u x1 u, the word is
    SQ SQ SQ[:T-1], of length 7T + 3.  Its double squares at positions
    1..T are conjugates of SQ^2, so every adjacent pair in the run is equal.
    The run is read from one census of the word, never from the formula; a
    census that differs anywhere from ``_closed_form_census(target)`` raises
    ``CounterexampleError``.
    """
    if target < 1:
        raise ValueError("target must be at least 1")
    x1 = "a" * (target - 1) + "b"
    u = x1 + "a"
    root = u + x1 + u
    text = root + root + root[:target - 1]
    if target == 1:  # babbababba: rename so that the word starts with a
        text = text.translate(str.maketrans("ab", "ba"))
    report = s_sequence(Word.from_text(text))
    predicted = _closed_form_census(target)
    if report.s != predicted:
        k, got, want = next((k, got, want) for k, (got, want)
                            in enumerate(zip_longest(report.s, predicted), 1) if got != want)
        raise CounterexampleError(
            f"closed-form word of length {len(text)} has s_{k} = {got}, "
            f"not the predicted {want}")
    return _run_report(report, ())
