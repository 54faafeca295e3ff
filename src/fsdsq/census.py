"""The rightmost distinct-square census.

The census assigns every position i of a word the number s_i of distinct
square factors whose *last* occurrence starts at i.  A square occurrence
(i, p) is the last occurrence of its value exactly when no prefix of the
suffix at i of length 2p reappears later, i.e. when 2p exceeds the longest
later match length m_i (the mirror image of the Longest Previous Factor
array of Crochemore & Ilie, IPL 2008).  Seven exact facts about m_i keep the
scan cheap:

* Roots lie in (m_i/2, m_i].  A square of root p at i puts codes[i:i+p]
  again at i+p > i, so p <= m_i; the rightmost test gives 2p > m_i.  With
  q = m_i//2 + 1, every candidate root p puts u = codes[i:i+q] at i+p, so a
  C-level substring search for u in the window i+q .. i+pmax+q lists the
  candidates in ascending order, and one slice compare of the remaining
  p-q letters confirms each.
* Witness step.  m_i <= m_{i+1} + 1, since a later match of the suffix at
  i, minus its first letter, is a later match of the suffix at i+1.  If the
  match of the suffix at i+1 starts again at some j > i+1 and
  codes[j-1] == codes[i], the letter before it extends that occurrence to
  one of length m_{i+1} + 1 at j-1 > i, so the bound is met and no search
  is needed.  Otherwise the step without an automaton probes lengths
  m_{i+1} + 1, m_{i+1}, ..., and the index the successful search returns
  becomes the next witness.
* Bounded first probe.  Let j be the nearest witness of position i+1 and
  the witness test fail.  A hit k of the probe of length m_{i+1} + 1 puts
  codes[i+1:i+1+m_{i+1}] at k+1 > i+1, so k+1 >= j; and k = j-1 is what
  the witness test ruled out.  So that probe searches from j, not i+1, and
  its hit is again the nearest witness; so is j-1 after a witness step, and
  the leftmost hit of a shorter probe.  Every witness the step returns is
  the nearest one.
* Witness-period rule.  Let m = m_i, j its witness and d = j - i <= m.
  Then codes[i:i+d+m] has period d, and the period breaks at e = i+d+m
  (codes[e] != codes[e-d], or e is the end of the word), since otherwise
  the match at j would be longer than m.  A root p >= d has 2p <= d+m:
  else e < i+2p, and with p <= m < 2p both e-p and e-d-p lie in
  [i, i+d+m) and [i, i+p), so codes[e] = codes[e-p] = codes[e-p-d] =
  codes[e-d].  Then codes[i:i+2p] has periods p and d, and Fine-Wilf gives
  it period g = gcd(p, d).  As g divides d, all of codes[i:i+d+m] has
  period g, so if g < d the suffix at i+g matches d+m-g > m letters, which
  m = m_i forbids; so d divides p.  Conversely every multiple p of d with
  2p <= d+m is a square of period d.  The interval [q, (d+m)/2] is shorter
  than d, so it holds at most one such multiple, and the find window
  shrinks to the roots p < d.  This needs only that j is a witness; the
  nearest one gives the smallest d, which applies the rule most often.
* m_i from a suffix automaton.  Let R be codes[i+1:] reversed and c =
  codes[i].  A prefix of length L of the suffix at i occurs at a start > i
  exactly when its reverse, the suffix of length L of Rc, is a factor of R.
  So m_i - 1 is the length of the longest suffix v of R with vc a factor of
  R, and m_i = 0 if c does not occur in R.  In the suffix automaton of R
  (Blumer et al., TCS 1985) the suffixes of R are the words of the states on
  the suffix-link path of the last state, longest first; a state holds
  words with one set of end positions in R, so either each of its words is
  followed by c somewhere in R, and the state has a c transition, or none
  is.  Hence m_i = len(p) + 1 for the first state p on that path with a c
  transition, or 0 if there is none.  That p is where the on-line extension
  of the automaton by c stops its walk, so building the automaton of the
  reversed word right to left gives every m_i in amortized O(1) per letter.
* Bounded witness search.  With m = m_i known and the witness test failed,
  one search for codes[i:i+m] in codes[i+1:i+2m] lists the starts k with
  i < k <= i+m; its leftmost hit is the nearest witness, with d <= m.  A
  miss means the nearest witness has d > m, where the witness-period rule
  does not apply, so no longer search is needed.  Each position then
  searches at most 2m letters, never the rest of the word.
* Witness miss.  Let the bounded search of position i+1 miss, so no copy
  of x = codes[i+1:i+1+m_{i+1}] starts at distance 1..m_{i+1} from i+1,
  and let m_i = m_{i+1} + 1.  A copy of codes[i:i+m_i] at distance d <=
  m_i from i, less its first letter, is a copy of x at distance d from
  i+1, so d > m_{i+1}, that is d = m_i.  One slice compare of
  codes[i:i+m_i] with codes[i+m_i:i+2m_i] then finds the nearest witness
  within m_i or a miss, and no search is needed.  On periodic words such
  as the Fibonacci words most bounded searches miss, and most misses are
  followed by this case.

``_census_step`` is the one implementation of the witness step and the
root window.  ``_census_scan`` takes every m_i from ``_later_matches``, the
automaton, and passes it to the step, which then makes only the bounded
witness search or, after a witness miss, one compare.  The sweep's walk
prepends one letter at a time and backtracks, which an automaton built
right to left cannot follow, so it runs the step with probes along the
left extensions of a word.
``runs_of_two`` reads the runs of 2's off the roots, for the census and the
sweep alike.

All equality decisions are exact byte comparisons, never hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import Word


@dataclass(frozen=True, slots=True)
class CensusReport:
    """Full rightmost-square census of one word.

    ``roots`` maps each 1-based position with s_i > 0 to the ascending root
    lengths of the squares whose last occurrence starts there; it lets
    structure analysis reuse the census instead of rescanning the word.
    """

    word: Word
    s: tuple[int, ...]
    runs_of_two: tuple[tuple[int, int], ...]
    # Derived from ``word`` like ``s``; kept out of comparison so the report
    # stays hashable.
    roots: dict[int, list[int]] = field(compare=False, repr=False)

    @property
    def distinct_square_count(self) -> int:
        return sum(self.s)

    @property
    def longest_run(self) -> tuple[int, int]:
        """The first longest run of 2's as (start, length); (0, 0) if none."""
        return max(self.runs_of_two, key=lambda run: run[1], default=(0, 0))

    @property
    def leading_run(self) -> int:
        """Length of the run of 2's that starts at position 1."""
        runs = self.runs_of_two
        return runs[0][1] if runs and runs[0][0] == 1 else 0

    def to_json_dict(self) -> dict:
        return {
            "word": self.word.text,
            "n": len(self.word),
            "s": list(self.s),
            "distinct_square_count": self.distinct_square_count,
            "runs_of_two": [{"start": a, "length": b} for a, b in self.runs_of_two],
            "longest_run": {"start": self.longest_run[0], "length": self.longest_run[1]},
        }


def _census_step(codes: bytes | bytearray):
    """The census step over ``codes``, right to left, as ``step(i, m, j)``
    or ``step(i, m, j, later)``.

    From the state of position i + 1 (m = m_{i+1}, and j, the nearest start
    > i + 1 of a later match of that length; m = -1 and j = len(codes) past
    the end) it returns m_i, the nearest such start for position i, and the
    ascending rightmost root lengths at i, by the facts of the module
    docstring.  Without ``later`` the step finds m_i by probes, so the
    sweep's walk can take one position at a time.  No probe is longer than
    the n - i - 1 letters right of i: a later match of the suffix at i + 1
    starts at i + 2 or later, so m_{i+1} <= n - i - 2 and the first probe
    has length m_{i+1} + 1 <= n - i - 1; at i = n - 1 the base state gives
    0.  ``_census_scan`` passes ``later`` = m_i from its automaton; the step
    then searches a witness only within distance m_i and returns j = -1
    when there is none there, so the next step skips the witness test.
    After such a miss, if m_i = m_{i+1} + 1, the step compares the one
    start at distance m_i instead of searching.
    ``codes`` may be a buffer that the caller rewrites left of i between
    calls: the step reads only positions i and right of it.
    """
    n = len(codes)
    find = codes.find

    def step(i: int, m: int, j: int, later: int = -1) -> tuple[int, int, list[int]]:
        m += 1
        if j - 1 > i and codes[j - 1] == codes[i]:
            j -= 1
            d = j - i
        elif later >= 0:
            if j < 0 and later == m:  # i + 1 missed: only d = m is left
                j = i + m if codes[i:i + m] == codes[i + m:i + 2 * m] else -1
            else:
                m = later
                j = find(codes[i:i + m], i + 1, i + 2 * m)
            d = j - i if j >= 0 else n  # a miss means d > m
        else:
            start = j  # a match of length m_{i+1} + 1 starts at j or later
            while m > 0:
                k = find(codes[i:i + m], start)
                if k != -1:
                    j = k
                    break
                m -= 1
                start = i + 1
            else:
                j = i + 1  # the empty match
            d = j - i
        ps: list[int] = []
        pmax = (n - i) >> 1
        if m < pmax:
            pmax = m
        q = (m >> 1) + 1
        extra = 0
        if d <= m:
            # Roots p >= d: the one multiple of d in [max(q, d), (d + m) / 2], if any.
            extra = q if q > d else d
            extra += -extra % d
            if extra > pmax or extra > (d + m) >> 1:
                extra = 0
            if pmax >= d:
                pmax = d - 1
        if q <= pmax:
            # A root p in [q, pmax] puts u at i + p; confirm the other p - q letters.
            u = codes[i:i + q]
            end = i + pmax + q
            k = find(u, i + q, end)
            while k != -1:
                if codes[i + q:k] == codes[k + q:2 * k - i]:
                    ps.append(k - i)
                k = find(u, k + 1, end)
        if extra:
            ps.append(extra)
        return m, j, ps

    return step


def _later_matches(codes: bytes) -> list[int]:
    """m_0, ..., m_{n-1} of ``codes``, by the suffix automaton of the
    reversed word, extended by codes[i] for i = n - 1 down to 0.

    State 0 is a bottom state of length -1 with a transition by every letter
    to the root, state 1, so every suffix-link path meets a transition.
    State k + 1 is the whole reversed word after its k-th letter; clones
    follow, at most n - 1 of them.  Each letter has one transition list over
    the states, 0 meaning none: no transition but the bottom's leads to the
    root.
    """
    n = len(codes)
    size = 2 * n + 2
    length = list(range(-1, n + 1)) + [0] * n
    link = [0] * size
    tables: list[list[int] | None] = [None] * 256
    every = []
    for c in set(codes):
        tables[c] = [1] + [0] * (size - 1)
        every.append(tables[c])
    later = []
    clone = n + 1
    for cur, c in enumerate(reversed(codes), 2):
        t = tables[c]
        p = cur - 1
        while not t[p]:
            t[p] = cur
            p = link[p]
        m = length[p] + 1
        later.append(m)
        q = t[p]
        if length[q] == m:
            link[cur] = q
        else:
            clone += 1
            length[clone] = m
            link[clone] = link[q]
            for table in every:
                table[clone] = table[q]
            while t[p] == q:
                t[p] = clone
                p = link[p]
            link[q] = link[cur] = clone
    later.reverse()
    return later


def _census_scan(codes: bytes) -> tuple[list[int], dict[int, list[int]]]:
    """Counts s_i plus, for positions with s_i > 0, the rightmost root
    lengths (1-based keys in ascending order, ascending root lengths)."""
    n = len(codes)
    s = [0] * n
    found: list[tuple[int, list[int]]] = []
    later = _later_matches(codes)
    step = _census_step(codes)
    m, j = -1, n
    for i in range(n - 1, -1, -1):
        m, j, ps = step(i, m, j, later[i])
        if ps:
            s[i] = len(ps)
            found.append((i + 1, ps))
    return s, dict(reversed(found))


def runs_of_two(roots: dict[int, list[int]]) -> tuple[tuple[int, int], ...]:
    """(start, length) of each maximal run of consecutive keys of ``roots``
    with exactly two roots, ascending.  ``roots`` needs every position with
    s_i >= 2, like the census's map or the sweep's ``doubles``."""
    runs: list[list[int]] = []
    for k in sorted(k for k, ps in roots.items() if len(ps) == 2):
        if runs and runs[-1][0] + runs[-1][1] == k:
            runs[-1][1] += 1
        else:
            runs.append([k, 1])
    return tuple((start, length) for start, length in runs)


def s_sequence(w: Word) -> CensusReport:
    """Census of ``w``: the s_i sequence, the runs of 2's and the rightmost
    roots at each position."""
    s, roots = _census_scan(w.codes)
    return CensusReport(w, tuple(s), runs_of_two(roots), roots)


def render_census_tsv(report: CensusReport) -> str:
    """Tab-separated census: header ``index letter s_i`` then one row per
    position."""
    lines = ["index\tletter\ts_i"]
    text = report.word.text
    for i, value in enumerate(report.s):
        lines.append(f"{i + 1}\t{text[i]}\t{value}")
    return "\n".join(lines) + "\n"
